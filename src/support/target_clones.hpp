// TADFA_TARGET_CLONES: one hot loop, built for three x86-64 levels.
//
// Put on a function's definition, it compiles the function for
// x86-64-v4 (AVX-512), x86-64-v3 (AVX2) and baseline x86-64, and the
// dynamic loader binds the one the CPU supports, once per process (an
// ifunc resolved from CPUID). The thermal DFA's per-transfer loops carry
// it: at baseline they run two SSE2 lanes. The v4 clone stays because
// an AVX-512 host compiles about 1.2x more functions per second with it
// than with v3 (README, "Full-width transfer").
//
// A clone may change the vector width only, never a result bit. Every
// cloned loop applies the same IEEE operations to each element in the
// same order, the library builds with -ffp-contract=off, so no clone
// fuses a·b + c into an FMA, and no loop reassociates a sum. What a
// wider vector may reorder (the δ test's maximum, see core/thermal_dfa)
// is written to be order-independent.
//
// Where ifunc clones are unavailable the macro expands to nothing and
// the baseline loop runs: on other targets and object formats, under
// GCC before 12 and under clang (their handling of `arch=x86-64-vN`
// clones is unchecked), and under ThreadSanitizer, whose instrumented
// ifunc resolver runs before the sanitizer's runtime and crashes at load.
#pragma once

#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && __GNUC__ >= 12 && !defined(__SANITIZE_THREAD__)
#define TADFA_HAS_TARGET_CLONES 1
#define TADFA_TARGET_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define TADFA_HAS_TARGET_CLONES 0
#define TADFA_TARGET_CLONES
#endif
