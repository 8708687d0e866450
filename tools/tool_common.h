#ifndef ODBGC_TOOLS_TOOL_COMMON_H_
#define ODBGC_TOOLS_TOOL_COMMON_H_

#include <string>

#include "oo7/params.h"
#include "sim/config.h"
#include "trace/trace.h"
#include "util/flags.h"

namespace odbgc::tools {

// Exit codes shared by the CLI tools (documented in README.md and
// docs/RECOVERY.md; asserted by tests/flags_test.cc). Scripts and CI
// branch on these, so their values are API.
inline constexpr int kExitOk = 0;            // success
inline constexpr int kExitUsage = 2;         // bad flags / unknown values
inline constexpr int kExitIo = 3;            // unreadable/unwritable file,
                                             // corrupt checkpoint
inline constexpr int kExitSimFailure = 4;    // deadline, failed sweep
                                             // runs, verifier violations
inline constexpr int kExitCrashInjected = 5; // --crash-at-event fired;
                                             // resume to continue
inline constexpr int kExitSpaceExhausted = 6; // --max-db-mb capacity hit
                                              // with no way to grow

// Flag vocabulary shared by the CLI tools. All functions return false
// and fill *error on unknown values and on counts out of range.

// --oo7=smallprime|small|tiny  --connectivity=N  --modules=N (each N in
// [1, 64])
bool BuildOo7Params(const Flags& flags, Oo7Params* params,
                    std::string* error);

// --workload=oo7|uniform-churn|bursty-deletes|growing-db|message-queue
// --seed=N plus per-workload knobs (--cycles, --lists, --bursts, ...;
// --lists, --length, --bursts, --retain-every and --batch must be
// positive). For oo7: the Oo7Params flags above and
// --idle-after-reorg1=N to insert a quiescent window.
bool BuildWorkloadTrace(const Flags& flags, Trace* trace,
                        std::string* error);

// The simulation flags PrintCommonUsage lists. A numeric or boolean flag
// defaults to the value *config holds; a value outside the range the
// library accepts fails with *error naming the flag.
bool BuildSimConfig(const Flags& flags, SimConfig* config,
                    std::string* error);

// Prints the flag vocabulary (used by every tool's --help).
void PrintCommonUsage();

// Reports flags that were never consumed, or whose numeric value did not
// parse in full; returns false if any.
bool CheckNoUnusedFlags(const Flags& flags, std::string* error);

}  // namespace odbgc::tools

#endif  // ODBGC_TOOLS_TOOL_COMMON_H_
