// Known-bad fixture for the boundary-fatal rule: library-style code
// (src/core/, not the logging/error/contract machinery) calling
// fatal()/panic() directly instead of returning a typed Result or
// using GRAPHENE_CHECK.
#include <cstdint>
#include <string>

namespace fixture {

void fatal(const char *fmt, ...);
void panic(const char *fmt, ...);

std::uint64_t
parseCount(const std::string &text)
{
    if (text.empty())
        fatal("empty count field");
    std::uint64_t total = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            panic("non-digit in count");
        total = total * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return total;
}

// A suppressed call must not fire:
void
shutdownNow()
{
    fatal("bye"); // analyze: allow(boundary-fatal)
}

} // namespace fixture
