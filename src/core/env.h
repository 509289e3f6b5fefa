// Strict environment-variable parsing shared by every MERSIT_* knob
// (MERSIT_THREADS, MERSIT_BACKEND, MERSIT_BENCH_FAST).  This header is the
// only place the library, the benches and the examples read the
// environment; scripts/ci.sh fails on a getenv anywhere else.
//
// Silently falling back to a default when a variable holds garbage turns
// typos ("MERSIT_THREADS=eight", "MERSIT_BENCH_FAST=true") into mysterious
// perf differences or runs at a sizing nobody asked for.  Policy, therefore:
//
//   * variable unset, or set to the empty string  -> caller's fallback
//     (the empty string is how shells "unset" a var for one command);
//   * anything else that is not an integer in the caller's range
//     -> std::runtime_error naming the variable, the offending value, and
//     the accepted range.  Loud beats lucky.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mersit::core {

/// Parse `name` as a base-10 integer in [lo, hi]; `fallback` when unset or
/// empty, std::runtime_error on anything malformed or out of range.
[[nodiscard]] inline long env_int(const char* name, long fallback, long lo,
                                  long hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v < lo || v > hi)
    throw std::runtime_error(std::string(name) + "='" + env +
                             "': expected an integer in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "]");
  return v;
}

/// String form of the same unset policy: nullptr when `name` is unset or set
/// to the empty string, the raw value otherwise.  Validation stays with the
/// caller — which knows the accepted value set — and must follow the same
/// loud-beats-lucky rule: an unrecognized value throws naming the variable,
/// the value, and the accepted set (see gemm::parse_backend for the
/// MERSIT_BACKEND instance).
[[nodiscard]] inline const char* env_str(const char* name) {
  const char* env = std::getenv(name);
  return (env == nullptr || env[0] == '\0') ? nullptr : env;
}

}  // namespace mersit::core
