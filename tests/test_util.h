/**
 * @file
 * Shared helpers for the test suite.
 */
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util/rng.h"
#include "core/backend.h"
#include "mod/modulus.h"
#include "u128/u128.h"

namespace mqx {
namespace test {

/** Pretty print for failed U128 comparisons. */
inline std::string
str(const U128& v)
{
    return toHexString(v);
}

#if MQX_HAVE_INT128
/** Native-int128 oracle conversions. */
inline unsigned __int128
nat(const U128& v)
{
    return v.toNative();
}

inline U128
fromNat(unsigned __int128 v)
{
    return U128::fromNative(v);
}
#endif

/** a * b mod q, Barrett on the Karatsuba (Eq. 9) product. */
inline U128
mulKaratsuba(const Modulus& m, const U128& a, const U128& b)
{
    return mod::fromDw(
        mod::mulModKaratsuba(mod::toDw(a), mod::toDw(b), m.barrett()));
}

/** All correct backends available on this host. */
inline std::vector<Backend>
availableCorrectBackends()
{
    std::vector<Backend> out;
    for (Backend b : correctBackends()) {
        if (backendAvailable(b))
            out.push_back(b);
    }
    return out;
}

/** gtest-friendly name for parameterized backend suites. */
inline std::string
backendParamName(const testing::TestParamInfo<Backend>& info)
{
    std::string name = backendName(info.param);
    for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

} // namespace test
} // namespace mqx
