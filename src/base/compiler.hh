/**
 * @file
 * Compiler hints shared across the stack.
 */

#ifndef ULECC_BASE_COMPILER_HH
#define ULECC_BASE_COMPILER_HH

/**
 * Forces a hot helper inline even where the optimiser's size
 * heuristics would keep it out of line.  Reserved for per-instruction
 * bodies of simulator loops, where one call per iteration costs more
 * than the work itself.
 */
#if defined(__GNUC__)
#define ULECC_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ULECC_ALWAYS_INLINE inline
#endif

#endif // ULECC_BASE_COMPILER_HH
