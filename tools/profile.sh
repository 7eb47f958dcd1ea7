#!/usr/bin/env bash
#
# Reproducible layer profile of the Fig. 8 smoke grid. Builds
# fig8_overhead with the `profile` preset (-pg, build-profile/), runs
#
#     fig8_overhead --windows 0.02 --jobs 1
#
# in a temporary directory, and prints gprof's flat profile folded into
# the per-layer share table that ROADMAP.md and EXPERIMENTS.md quote:
# one line per layer with its share of self time and its heaviest
# functions. Any change can regenerate the table before and after.
#
# The preset adds -fno-ipa-sra: gprof skips the `.isra` clones that
# IPA-SRA makes and bills their samples to whatever symbol precedes
# them, which hid the fault oracle's probe under an unrelated name.
#
# Usage: tools/profile.sh (takes no arguments; for other fig8 flags
# run the instrumented binary and gprof by hand).
#
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset profile >/dev/null
cmake --build --preset profile --target fig8_overhead -j "$(nproc)" \
    >/dev/null

bin="$PWD/build-profile/bench/fig8_overhead"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

start=$(date +%s.%N)
(cd "$work" &&
    "$bin" --windows 0.02 --jobs 1 --no-progress >/dev/null)
end=$(date +%s.%N)

gprof -b -p "$bin" "$work/gmon.out" >"$work/flat.txt"

python3 - "$work/flat.txt" "$start" "$end" <<'EOF'
import re
import sys

path, start, end = sys.argv[1], *map(float, sys.argv[2:])

# Layers in the order an ACT crosses them; the first matching pattern
# wins, so more specific names come first.
LAYERS = [
    ("Workload generation", r"ZipfSampler|SyntheticGenerator|graphene::Rng::|ActPattern|Pattern::next"),
    ("Fault oracle", r"FaultModel"),
    ("Address decode", r"AddressMapper"),
    ("Event loop, controller, bank timing",
     r"runSystem|ChannelController|QueuedController|dram::Bank::|dram::Rank::|TimingParams"),
    ("Schemes + trackers",
     r"graphene::core::|graphene::schemes::|CounterTable|Tracker|RefreshAction|"
     r"_Hashtable<graphene::StrongId<graphene::tags::Row"),
    ("Engine (ACT stream)", r"ActStreamEngine"),
    ("Checkpoint / exp runner / obs", r"graphene::ckpt::|graphene::exp::|graphene::obs::"),
]

rows = []
for line in open(path):
    m = re.match(r"\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$", line)
    if m:
        rows.append((float(m.group(1)), m.group(2).strip()))

total = sum(r[0] for r in rows) or 1.0
shares = {name: [0.0, []] for name, _ in LAYERS}
shares["Other (libc, allocator, runner)"] = [0.0, []]
for secs, fn in rows:
    layer = next((name for name, pat in LAYERS if re.search(pat, fn)),
                 "Other (libc, allocator, runner)")
    shares[layer][0] += secs
    shares[layer][1].append((secs, fn))


def short(fn):
    """Drop arguments, template arguments, return type and namespaces."""
    fn = re.sub(r"\(.*$", "", fn)
    while re.search(r"<[^<>]*>", fn):
        fn = re.sub(r"<[^<>]*>", "", fn)
    fn = fn.split(" ")[-1]
    return re.sub(r"^graphene::([a-z]\w*::)?", "", fn)


print(f"fig8_overhead wall {end - start:.1f} s, "
      f"{total:.2f} s sampled self time")
print()
print("| Layer | Share | Main sites |")
print("|---|---|---|")
for name, (secs, fns) in shares.items():
    if secs <= 0.0:
        continue
    fns.sort(reverse=True)
    sites = ", ".join(f"`{short(f)}` {100 * s / total:.0f}%"
                      for s, f in fns[:3] if 100 * s / total >= 0.5)
    print(f"| {name} | {100 * secs / total:.0f}% | {sites} |")
EOF
