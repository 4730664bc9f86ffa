#pragma once
/// \file asan.hpp
/// AddressSanitizer interop for the arena. The arena recycles its regions
/// without returning them to the heap, which would normally blind ASan
/// to use-after-reset bugs. Under an ASan build these macros manually
/// poison recycled memory, so touching an arena span after its frame
/// popped reports like any heap error. In normal builds they compile to
/// nothing.

#if defined(__SANITIZE_ADDRESS__)
#define OBSCORR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OBSCORR_ASAN 1
#endif
#endif

#if defined(OBSCORR_ASAN)
#include <sanitizer/asan_interface.h>
#define OBSCORR_ASAN_POISON(addr, size) ASAN_POISON_MEMORY_REGION((addr), (size))
#define OBSCORR_ASAN_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION((addr), (size))
#else
#define OBSCORR_ASAN_POISON(addr, size) ((void)0)
#define OBSCORR_ASAN_UNPOISON(addr, size) ((void)0)
#endif
