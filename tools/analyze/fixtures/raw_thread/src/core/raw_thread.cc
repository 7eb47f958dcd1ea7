// Known-bad fixture: raw threading primitives outside src/exp/.
#include <future>
#include <thread>

namespace fixture {

void
spawn()
{
    std::thread worker([] {});
    auto task = std::async([] { return 1; });
    task.wait();
    worker.join();

    // Suppressed use (must NOT produce a finding):
    std::thread allowed([] {}); // analyze: allow(raw-thread)
    allowed.join();

    // std::this_thread is fine — only thread creation is fenced.
    std::this_thread::yield();
}

} // namespace fixture
