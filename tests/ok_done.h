/**
 * @file
 * Test helper for the storage layers' reads, programs and erases,
 * which return a completion tick together with a Status.
 */

#ifndef BISCUIT_TESTS_OK_DONE_H_
#define BISCUIT_TESTS_OK_DONE_H_

#include <gtest/gtest.h>

#include "util/common.h"

namespace bisc {

/** The completion tick of an operation that must succeed. */
template <class Result>
Tick
okDone(const Result &r)
{
    EXPECT_TRUE(r.status.ok()) << r.status.toString();
    return r.done;
}

}  // namespace bisc

#endif  // BISCUIT_TESTS_OK_DONE_H_
