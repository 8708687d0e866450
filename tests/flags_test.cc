#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/saio.h"
#include "tools/tool_common.h"
#include "util/flags.h"

namespace odbgc {
namespace {

Flags ParseOk(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;  // keep c_str()s alive
  storage = std::move(args);
  argv.push_back(const_cast<char*>("tool"));
  for (auto& a : storage) argv.push_back(const_cast<char*>(a.c_str()));
  Flags flags;
  std::string error;
  EXPECT_TRUE(Flags::Parse(static_cast<int>(argv.size()), argv.data(),
                           &flags, &error))
      << error;
  return flags;
}

TEST(FlagsTest, KeyEqualsValue) {
  Flags f = ParseOk({"--policy=saga", "--saga-frac=0.15"});
  EXPECT_EQ(f.GetString("policy", ""), "saga");
  EXPECT_DOUBLE_EQ(f.GetDouble("saga-frac", 0.0), 0.15);
}

TEST(FlagsTest, BareKeyFollowedByPositionalStaysBoolean) {
  // No `--key value` form: the token after a bare flag is positional.
  Flags f = ParseOk({"--verbose", "400"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "400");
}

TEST(FlagsTest, BareFlagIsBooleanTrue) {
  Flags f = ParseOk({"--opportunism", "--policy=saio"});
  EXPECT_TRUE(f.GetBool("opportunism", false));
  EXPECT_EQ(f.GetString("policy", ""), "saio");
}

TEST(FlagsTest, BooleanSpellings) {
  Flags f = ParseOk({"--a=true", "--b=1", "--c=yes", "--d=on", "--e=false",
                     "--f=0", "--g=no", "--h=off"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_TRUE(f.GetBool("b", false));
  EXPECT_TRUE(f.GetBool("c", false));
  EXPECT_TRUE(f.GetBool("d", false));
  EXPECT_FALSE(f.GetBool("e", true));
  EXPECT_FALSE(f.GetBool("f", true));
  EXPECT_FALSE(f.GetBool("g", true));
  EXPECT_FALSE(f.GetBool("h", true));
  EXPECT_TRUE(f.MalformedKeys().empty());
}

TEST(FlagsTest, MalformedBooleansFallBackToDefaultAndAreRecorded) {
  // A misspelt value must not read as false: `--governor=ture` would
  // otherwise run ungoverned and exit 0.
  Flags f = ParseOk({"--g=ture", "--h=TRUE", "--i="});
  EXPECT_TRUE(f.GetBool("g", true));
  EXPECT_FALSE(f.GetBool("g", false));
  EXPECT_TRUE(f.GetBool("h", true));
  EXPECT_FALSE(f.GetBool("i", false));
  EXPECT_EQ(f.MalformedKeys(), (std::set<std::string>{"g", "h", "i"}));
  EXPECT_TRUE(f.UnusedKeys().empty());
}

TEST(FlagsTest, PositionalArguments) {
  Flags f = ParseOk({"input.trace", "--verbose", "other.file"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.trace");
  EXPECT_EQ(f.positional()[1], "other.file");
}

TEST(FlagsTest, DefaultsWhenMissing) {
  Flags f = ParseOk({});
  EXPECT_EQ(f.GetString("x", "dflt"), "dflt");
  EXPECT_EQ(f.GetInt("y", 7), 7);
  EXPECT_DOUBLE_EQ(f.GetDouble("z", 1.5), 1.5);
  EXPECT_FALSE(f.Has("x"));
}

TEST(FlagsTest, UnusedKeysDetected) {
  Flags f = ParseOk({"--used=1", "--typo=2"});
  (void)f.GetInt("used", 0);
  std::vector<std::string> unused = f.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagsTest, MalformedNumbersFallBackToDefaultAndAreRecorded) {
  Flags f = ParseOk({"--seed=abc", "--cycles=1e3", "--frac=0.5x",
                     "--big=99999999999999999999", "--neg=-7", "--exp=1e3",
                     "--empty="});
  EXPECT_EQ(f.GetInt("seed", 1), 1);
  EXPECT_EQ(f.GetInt("cycles", 20), 20);
  EXPECT_DOUBLE_EQ(f.GetDouble("frac", 0.1), 0.1);
  EXPECT_EQ(f.GetInt("big", 5), 5);
  EXPECT_EQ(f.GetInt("neg", 0), -7);
  EXPECT_DOUBLE_EQ(f.GetDouble("exp", 0.0), 1000.0);
  EXPECT_EQ(f.GetInt("empty", 3), 3);
  EXPECT_EQ(f.MalformedKeys(), (std::set<std::string>{"big", "cycles", "empty",
                                                      "frac", "seed"}));
  EXPECT_TRUE(f.UnusedKeys().empty());
}

TEST(ToolCommonTest, CheckNoUnusedFlagsNamesMalformedValues) {
  // odbgc_run exits 2 on this check before it builds a simulation, so a
  // malformed value can neither run as 0 nor trip a constructor CHECK.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--policy=saga", "--seed=abc"},
      {"--policy=saga", "--saga-frac=abc"},
      {"--policy=saio", "--hist=abc"},
      {"--policy=saga", "--governor=ture"}};
  for (const auto& [policy, arg] : cases) {
    SimConfig cfg;
    std::string error;
    Flags f = ParseOk({policy, arg});
    ASSERT_TRUE(tools::BuildSimConfig(f, &cfg, &error)) << error;
    EXPECT_FALSE(tools::CheckNoUnusedFlags(f, &error)) << arg;
    EXPECT_NE(error.find(arg), std::string::npos) << error;
  }
  Flags ok = ParseOk({"--policy=saio", "--hist=4", "--seed=3"});
  SimConfig cfg;
  std::string error;
  ASSERT_TRUE(tools::BuildSimConfig(ok, &cfg, &error)) << error;
  EXPECT_EQ(cfg.saio_history, 4u);
  EXPECT_TRUE(tools::CheckNoUnusedFlags(ok, &error)) << error;
}

TEST(ToolCommonTest, BuildOo7ParamsPresets) {
  Oo7Params params;
  std::string error;
  Flags f = ParseOk({"--oo7=tiny", "--connectivity=9"});
  ASSERT_TRUE(tools::BuildOo7Params(f, &params, &error)) << error;
  EXPECT_EQ(params.num_comp_per_module, Oo7Params::Tiny().num_comp_per_module);
  EXPECT_EQ(params.num_conn_per_atomic, 9u);

  Flags bad = ParseOk({"--oo7=enormous"});
  EXPECT_FALSE(tools::BuildOo7Params(bad, &params, &error));
}

TEST(ToolCommonTest, BuildOo7ParamsRejectsOutOfRangeCounts) {
  // Unchecked, --modules=-1 would ask for 4,294,967,295 modules and
  // --modules=0 would write a 4-event trace. Only the params are built
  // here, so no case generates anything.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--modules=-1", "--modules"},
      {"--modules=0", "--modules"},
      {"--modules=65", "--modules"},
      {"--modules=4294967297", "--modules"},  // would narrow to 1
      {"--connectivity=-1", "--connectivity"},
      {"--connectivity=0", "--connectivity"},
      {"--connectivity=65", "--connectivity"},
  };
  for (const auto& [arg, flag] : bad) {
    Oo7Params params;
    std::string error;
    EXPECT_FALSE(tools::BuildOo7Params(ParseOk({arg}), &params, &error))
        << arg;
    EXPECT_EQ(error.rfind(flag, 0), 0u) << arg << ": " << error;
  }
  Oo7Params params;
  std::string error;
  ASSERT_TRUE(tools::BuildOo7Params(
      ParseOk({"--modules=64", "--connectivity=1"}), &params, &error))
      << error;
  EXPECT_EQ(params.num_modules, 64u);
  EXPECT_EQ(params.num_conn_per_atomic, 1u);
}

TEST(ToolCommonTest, BuildWorkloadTraceRejectsNonPositiveCounts) {
  // Unchecked, each of these would abort on a generator's CHECK (exit
  // 134) or build a degenerate trace and exit 0; the flag layer rejects
  // it first (exit 2), naming the flag. A missing rule would generate a
  // small trace at worst: --cycles stays small and an unchecked
  // --modules=0 writes 4 events.
  const std::vector<std::pair<std::vector<std::string>, std::string>> bad = {
      {{"--workload=uniform-churn", "--lists=0"}, "--lists"},
      {{"--workload=uniform-churn", "--length=-3"}, "--length"},
      {{"--workload=bursty-deletes", "--bursts=0"}, "--bursts"},
      {{"--workload=bursty-deletes", "--lists=-1"}, "--lists"},
      {{"--workload=bursty-deletes", "--length=0"}, "--length"},
      {{"--workload=growing-db", "--retain-every=0"}, "--retain-every"},
      {{"--workload=message-queue", "--batch=0"}, "--batch"},
      {{"--workload=message-queue", "--batch=4294967296"}, "--batch"},
      {{"--workload=oo7", "--oo7=tiny", "--modules=0"}, "--modules"},
  };
  for (auto [args, flag] : bad) {
    args.push_back("--cycles=10");
    Trace trace;
    std::string error;
    EXPECT_FALSE(tools::BuildWorkloadTrace(ParseOk(args), &trace, &error))
        << testing::PrintToString(args);
    EXPECT_TRUE(trace.empty()) << testing::PrintToString(args);
    EXPECT_EQ(error.rfind(flag, 0), 0u)
        << testing::PrintToString(args) << ": " << error;
  }

  // The smallest counts still build.
  const std::vector<std::vector<std::string>> good = {
      {"--workload=uniform-churn", "--lists=1", "--length=1", "--cycles=10"},
      {"--workload=bursty-deletes", "--bursts=1", "--lists=1", "--length=1",
       "--quiet-cycles=10"},
      {"--workload=growing-db", "--retain-every=1", "--cycles=10"},
      {"--workload=message-queue", "--batch=1", "--cycles=10"},
  };
  for (const std::vector<std::string>& args : good) {
    Trace trace;
    std::string error;
    EXPECT_TRUE(tools::BuildWorkloadTrace(ParseOk(args), &trace, &error))
        << args.front() << ": " << error;
    EXPECT_FALSE(trace.empty()) << args.front();
  }
}

TEST(ToolCommonTest, BuildWorkloadTraceRejectsOutOfRangeLoopCounts) {
  // Unchecked, each of these was narrowed as it came: a negative or zero
  // count ran no loop (a 2-event churn trace, a structural app of GenDb
  // alone, a T2 without updates) and exited 0, and a negative idle bound
  // became an idle mark allowing 4,294,967,295 collections. A missing
  // rule would still build a small trace here.
  const std::vector<std::pair<std::vector<std::string>, std::string>> bad = {
      {{"--workload=uniform-churn", "--cycles=-5"}, "--cycles"},
      {{"--workload=uniform-churn", "--cycles=0"}, "--cycles"},
      {{"--workload=growing-db", "--cycles=-1"}, "--cycles"},
      {{"--workload=message-queue", "--cycles=2147483648"}, "--cycles"},
      {{"--workload=bursty-deletes", "--quiet-cycles=-1"}, "--quiet-cycles"},
      {{"--app=structural", "--rounds=-2"}, "--rounds"},
      {{"--app=structural", "--rounds=0"}, "--rounds"},
      {{"--app=structural", "--per-round=0"}, "--per-round"},
      {{"--app=t2", "--updates-per-part=-5"}, "--updates-per-part"},
      {{"--app=t2", "--updates-per-part=0"}, "--updates-per-part"},
      {{"--idle-after-reorg1=-1"}, "--idle-after-reorg1"},
      {{"--idle-after-reorg1=4294967296"}, "--idle-after-reorg1"},
  };
  for (auto [args, flag] : bad) {
    if (args.front().rfind("--workload=", 0) != 0) {
      args.insert(args.begin(), {"--workload=oo7", "--oo7=tiny"});
    }
    Trace trace;
    std::string error;
    EXPECT_FALSE(tools::BuildWorkloadTrace(ParseOk(args), &trace, &error))
        << testing::PrintToString(args);
    EXPECT_TRUE(trace.empty()) << testing::PrintToString(args);
    EXPECT_EQ(error.rfind(flag, 0), 0u)
        << testing::PrintToString(args) << ": " << error;
  }

  // 0 means "none" where it is allowed, and each range's ends build.
  const std::vector<std::vector<std::string>> good = {
      {"--workload=uniform-churn", "--cycles=1"},
      {"--workload=growing-db", "--cycles=1"},
      {"--workload=message-queue", "--cycles=1"},
      {"--workload=bursty-deletes", "--quiet-cycles=0", "--bursts=2"},
      {"--workload=oo7", "--oo7=tiny", "--app=structural", "--rounds=1",
       "--per-round=1"},
      {"--workload=oo7", "--oo7=tiny", "--app=t2", "--updates-per-part=1"},
  };
  for (const std::vector<std::string>& args : good) {
    Trace trace;
    std::string error;
    EXPECT_TRUE(tools::BuildWorkloadTrace(ParseOk(args), &trace, &error))
        << testing::PrintToString(args) << ": " << error;
    EXPECT_FALSE(trace.empty()) << testing::PrintToString(args);
  }
  for (uint32_t idle : {0u, UINT32_MAX}) {
    Trace trace;
    std::string error;
    ASSERT_TRUE(tools::BuildWorkloadTrace(
        ParseOk({"--workload=oo7", "--oo7=tiny",
                 "--idle-after-reorg1=" + std::to_string(idle)}),
        &trace, &error))
        << error;
    const auto marks = std::count_if(
        trace.events().begin(), trace.events().end(),
        [](const TraceEvent& e) { return e.kind == EventKind::kIdleMark; });
    EXPECT_EQ(marks, idle == 0 ? 0 : 1) << idle;
    for (const TraceEvent& e : trace.events()) {
      if (e.kind == EventKind::kIdleMark) {
        EXPECT_EQ(e.a, idle);
      }
    }
  }
}

TEST(ToolCommonTest, BuildSimConfigPolicies) {
  std::string error;
  {
    SimConfig cfg;
    Flags f = ParseOk({"--policy=saio", "--saio-frac=0.2", "--hist=inf"});
    ASSERT_TRUE(tools::BuildSimConfig(f, &cfg, &error)) << error;
    EXPECT_EQ(cfg.policy, PolicyKind::kSaio);
    EXPECT_DOUBLE_EQ(cfg.saio_frac, 0.2);
    EXPECT_EQ(cfg.saio_history, SaioPolicy::kInfiniteHistory);
  }
  {
    SimConfig cfg;
    Flags f = ParseOk({"--policy=fixed", "--rate=321"});
    ASSERT_TRUE(tools::BuildSimConfig(f, &cfg, &error)) << error;
    EXPECT_EQ(cfg.policy, PolicyKind::kFixedRate);
    EXPECT_EQ(cfg.fixed_rate_overwrites, 321u);
  }
  {
    SimConfig cfg;
    Flags f = ParseOk({"--policy=coupled", "--ref-frac=0.3",
                       "--estimator=cgshb", "--selector=roundrobin",
                       "--partition-kb=32", "--page-kb=4"});
    ASSERT_TRUE(tools::BuildSimConfig(f, &cfg, &error)) << error;
    EXPECT_EQ(cfg.policy, PolicyKind::kCoupled);
    EXPECT_DOUBLE_EQ(cfg.coupled.garbage_ref_frac, 0.3);
    EXPECT_EQ(cfg.estimator, EstimatorKind::kCgsHb);
    EXPECT_EQ(cfg.selector, SelectorKind::kRoundRobin);
    EXPECT_EQ(cfg.store.partition_bytes, 32u * 1024u);
  }
  {
    SimConfig cfg;
    Flags f = ParseOk({"--policy=nonsense"});
    EXPECT_FALSE(tools::BuildSimConfig(f, &cfg, &error));
  }
}

TEST(ToolCommonTest, ExitCodesAreStableApi) {
  // Scripts and CI (tools/check_soak.sh, tools/check_recovery.sh,
  // docs/RECOVERY.md, README.md) branch on these values; changing one
  // is a breaking interface change, not a refactor.
  EXPECT_EQ(tools::kExitOk, 0);
  EXPECT_EQ(tools::kExitUsage, 2);
  EXPECT_EQ(tools::kExitIo, 3);
  EXPECT_EQ(tools::kExitSimFailure, 4);
  EXPECT_EQ(tools::kExitCrashInjected, 5);
  EXPECT_EQ(tools::kExitSpaceExhausted, 6);
}

TEST(ToolCommonTest, BuildSimConfigCapacityAndGovernorKnobs) {
  SimConfig cfg;
  std::string error;
  Flags f = ParseOk(
      {"--policy=saio", "--max-db-mb=64", "--governor",
       "--governor-yellow=0.6", "--governor-red=0.8",
       "--governor-hysteresis=0.04", "--governor-check-interval=32",
       "--governor-boost-interval=256", "--governor-emergency-max=8",
       "--safe-mode-divergence=0.3", "--safe-mode-flip=0.6",
       "--safe-mode-rate=128"});
  ASSERT_TRUE(tools::BuildSimConfig(f, &cfg, &error)) << error;
  EXPECT_EQ(cfg.store.max_db_bytes, 64ull * 1024 * 1024);
  EXPECT_TRUE(cfg.governor.enabled);
  EXPECT_DOUBLE_EQ(cfg.governor.yellow_frac, 0.6);
  EXPECT_DOUBLE_EQ(cfg.governor.red_frac, 0.8);
  EXPECT_DOUBLE_EQ(cfg.governor.hysteresis_frac, 0.04);
  EXPECT_EQ(cfg.governor.check_interval_events, 32u);
  EXPECT_EQ(cfg.governor.boost_interval_overwrites, 256u);
  EXPECT_EQ(cfg.governor.emergency_max_collections, 8u);
  EXPECT_DOUBLE_EQ(cfg.governor.safe_mode_divergence_frac, 0.3);
  EXPECT_DOUBLE_EQ(cfg.governor.safe_mode_flip_frac, 0.6);
  EXPECT_EQ(cfg.governor.safe_mode_fixed_interval, 128u);

  // Defaults stay off: no cap, no governor.
  SimConfig plain;
  Flags none = ParseOk({"--policy=saio"});
  ASSERT_TRUE(tools::BuildSimConfig(none, &plain, &error)) << error;
  EXPECT_EQ(plain.store.max_db_bytes, 0u);
  EXPECT_FALSE(plain.governor.enabled);
}

TEST(ToolCommonTest, BuildSimConfigRejectsInvertedWatermarks) {
  SimConfig cfg;
  std::string error;
  Flags f = ParseOk({"--policy=saio", "--governor", "--governor-yellow=0.9",
                     "--governor-red=0.5"});
  EXPECT_FALSE(tools::BuildSimConfig(f, &cfg, &error));
  EXPECT_NE(error.find("governor"), std::string::npos);
}

TEST(ToolCommonTest, BuildSimConfigRejectsOutOfRangeValues) {
  // Each of these well-formed values would abort in a library
  // constructor's CHECK; the flag layer rejects it first (odbgc_run exits
  // 2), with a message that starts with the flag's name.
  const std::vector<std::pair<std::vector<std::string>, std::string>> bad = {
      {{"--saga-frac=0"}, "--saga-frac"},
      {{"--saga-frac=1.5"}, "--saga-frac"},
      {{"--policy=saio", "--saio-frac=0"}, "--saio-frac"},
      {{"--policy=coupled", "--saio-frac=0"}, "--saio-frac"},
      {{"--policy=coupled", "--ref-frac=0"}, "--ref-frac"},
      {{"--policy=fixed", "--rate=0"}, "--rate"},
      {{"--policy=alloc-rate", "--alloc-bytes=0"}, "--alloc-bytes"},
      {{"--history-factor=2"}, "--history-factor"},
      {{"--history-factor=-0.5"}, "--history-factor"},
      {{"--page-kb=0"}, "--page-kb"},
      {{"--partition-kb=100"}, "--partition-kb"},
      {{"--partition-kb=0"}, "--partition-kb"},
      {{"--buffer-pages=0"}, "--buffer-pages"},
      {{"--governor", "--governor-check-interval=0"},
       "--governor-check-interval"},
      {{"--governor", "--governor-hysteresis=-0.1"}, "--governor-hysteresis"},
      {{"--governor", "--safe-mode-rate=0"}, "--safe-mode-rate"},
  };
  for (const auto& [args, flag] : bad) {
    SimConfig cfg;
    std::string error;
    EXPECT_FALSE(tools::BuildSimConfig(ParseOk(args), &cfg, &error))
        << testing::PrintToString(args);
    EXPECT_EQ(error.rfind(flag, 0), 0u)
        << testing::PrintToString(args) << ": " << error;
  }

  // Range boundaries, and governor knobs while the governor is off,
  // still build.
  const std::vector<std::vector<std::string>> good = {
      {"--saga-frac=0.99"},
      {"--history-factor=0"},
      {"--history-factor=1"},
      {"--governor-check-interval=0"},
  };
  for (const std::vector<std::string>& args : good) {
    SimConfig cfg;
    std::string error;
    EXPECT_TRUE(tools::BuildSimConfig(ParseOk(args), &cfg, &error))
        << args.back() << ": " << error;
  }
}

TEST(ToolCommonTest, BuildSimConfigSelfHealingKnobs) {
  SimConfig cfg;
  std::string error;
  Flags f = ParseOk({"--policy=saga", "--bitflip-prob=0.01",
                     "--decay-prob=0.005", "--decay-latency=32",
                     "--dead-page-prob=0.002", "--dead-partition-prob=0.2",
                     "--fault-seed=9", "--scrub-interval=64",
                     "--scrub-pages=16", "--no-auto-repair",
                     "--no-verify-after-repair"});
  ASSERT_TRUE(tools::BuildSimConfig(f, &cfg, &error)) << error;
  EXPECT_DOUBLE_EQ(cfg.store.fault.bitflip_prob, 0.01);
  EXPECT_DOUBLE_EQ(cfg.store.fault.decay_prob, 0.005);
  EXPECT_EQ(cfg.store.fault.decay_latency, 32u);
  EXPECT_DOUBLE_EQ(cfg.store.fault.dead_page_prob, 0.002);
  EXPECT_DOUBLE_EQ(cfg.store.fault.dead_partition_prob, 0.2);
  EXPECT_EQ(cfg.store.fault.seed, 9u);
  EXPECT_EQ(cfg.scrub_interval_events, 64u);
  EXPECT_EQ(cfg.scrub_pages_per_quantum, 16u);
  EXPECT_FALSE(cfg.auto_repair);
  EXPECT_FALSE(cfg.verify_after_repair);

  // Defaults: everything off, repair on — the knob-free configuration
  // must stay byte-identical to a build without self-healing.
  SimConfig plain;
  Flags none = ParseOk({"--policy=saga"});
  ASSERT_TRUE(tools::BuildSimConfig(none, &plain, &error)) << error;
  EXPECT_DOUBLE_EQ(plain.store.fault.bitflip_prob, 0.0);
  EXPECT_EQ(plain.scrub_interval_events, 0u);
  EXPECT_TRUE(plain.auto_repair);
  EXPECT_TRUE(plain.verify_after_repair);
}

TEST(ToolCommonTest, BuildWorkloadTraceKinds) {
  std::string error;
  for (const char* w : {"uniform-churn", "bursty-deletes", "growing-db",
                        "message-queue"}) {
    Trace trace;
    Flags f = ParseOk({std::string("--workload=") + w, "--cycles=500",
                       "--bursts=3"});
    ASSERT_TRUE(tools::BuildWorkloadTrace(f, &trace, &error))
        << w << ": " << error;
    EXPECT_GT(trace.size(), 0u) << w;
  }
  Trace trace;
  Flags f = ParseOk({"--workload=oo7", "--oo7=tiny", "--seed=3"});
  ASSERT_TRUE(tools::BuildWorkloadTrace(f, &trace, &error)) << error;
  EXPECT_GT(trace.size(), 1000u);

  Flags idle = ParseOk({"--workload=oo7", "--oo7=tiny",
                        "--idle-after-reorg1=50"});
  Trace idle_trace;
  ASSERT_TRUE(tools::BuildWorkloadTrace(idle, &idle_trace, &error)) << error;
  bool has_idle = false;
  for (const TraceEvent& e : idle_trace.events()) {
    if (e.kind == EventKind::kIdleMark) {
      has_idle = true;
      EXPECT_EQ(e.a, 50u);
    }
  }
  EXPECT_TRUE(has_idle);

  Flags bad = ParseOk({"--workload=quantum"});
  EXPECT_FALSE(tools::BuildWorkloadTrace(bad, &trace, &error));
}

}  // namespace
}  // namespace odbgc
