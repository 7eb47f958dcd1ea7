#include "common/random.hh"

#include <cmath>

#include "common/divisor.hh"

namespace graphene {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    for (auto &s : state)
        s = splitmix64(seed);
}

std::uint64_t
Rng::next64()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

std::uint64_t
Rng::nextRange(std::uint64_t bound)
{
    // Plain modulo reduction. Its bias is below bound / 2^64, which is
    // irrelevant for the bounds used here; a debiased method (e.g.
    // Lemire's multiply-shift with rejection) would map raw draws to
    // different values and so change every workload and artifact.
    // Power-of-two bounds take the mask path of the same reduction.
    return Divisor(bound).rem(next64());
}

double
Rng::nextDouble()
{
    return (next64() >> 11) * 0x1.0p-53;
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

double
Rng::exponential(double mean)
{
    double u = nextDouble();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

} // namespace graphene
