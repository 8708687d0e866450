// odbgc_analyze — summarize and compare controller decision ledgers
// (odbgc_run --decisions-out) and time-series streams (--timeseries-out).
//
//   odbgc_analyze --ledger=dec.jsonl [--timeseries=ts.jsonl]
//   odbgc_analyze --diff --a=saio.jsonl --b=saga.jsonl
//                 [--label-a=saio --label-b=saga]
//                 [--io-target=PCT --garbage-target=PCT]
//
// Summary mode prints one run's controller behavior: decision counts per
// reason code, how often the chosen interval moved, an oscillation index
// (mean |Δinterval| / mean interval, plus the fraction of consecutive
// moves that reversed direction), estimator error against the verifier
// oracle, and the achieved I/O / garbage percentages against the
// policy's target.
//
// Diff mode reproduces the paper's fig4/fig5 comparison: which of two
// runs tracks an I/O budget more accurately and which tracks a garbage
// target more accurately. Targets default to each run's own recorded
// target (an io%% for saio/coupled, a garbage%% for saga) and can be
// overridden. Verdict lines are stable `diff key=value` text so shell
// gates can grep them.
//
// Exit 0: analyzed fine. Exit 2: usage. Exit 3: unreadable or
// unparseable input.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/file.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

using odbgc::JsonValue;

struct Decision {
  double seq = 0.0;
  double tick = 0.0;
  double collection = 0.0;  // 0 for idle decisions
  std::string policy;
  std::string reason;
  double chosen_interval = 0.0;
  double target = 0.0;
  double io_pct = 0.0;
  double garbage_pct = 0.0;
  double actual_garbage_bytes = 0.0;
  double estimate_bytes = 0.0;
  double db_used_bytes = 0.0;
};

// Everything summary mode prints and diff mode compares.
struct LedgerSummary {
  std::string path;
  size_t decisions = 0;
  size_t idle_decisions = 0;
  std::map<std::string, size_t> policies;
  std::map<std::string, size_t> reasons;
  size_t rate_changes = 0;        // decisions whose interval moved
  double oscillation_index = 0.0; // mean |Δinterval| / mean interval
  double flip_fraction = 0.0;     // direction reversals among moves
  size_t estimator_samples = 0;
  double estimator_error_mean_pp = 0.0;
  double estimator_error_max_pp = 0.0;
  double mean_io_pct = 0.0;
  double mean_garbage_pct = 0.0;
  double mean_target = 0.0;
  // "io" when the dominant policy targets an I/O budget (saio/coupled),
  // "garbage" when it targets a garbage fraction (saga), else "none".
  std::string target_kind = "none";
};

double Num(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : 0.0;
}

std::string Str(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value()
                                          : std::string();
}

// Parses one JSONL file; false (with a message) on I/O or parse failure.
bool LoadJsonlObjects(const std::string& path,
                      std::vector<JsonValue>* out, std::string* error) {
  std::string text;
  if (!odbgc::ReadWholeFile(path, &text)) {
    *error = "cannot read '" + path + "'";
    return false;
  }
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    ++line_no;
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    JsonValue v;
    std::string parse_error;
    if (!JsonValue::Parse(line, &v, &parse_error) || !v.is_object()) {
      *error = path + " line " + std::to_string(line_no) + ": " +
               (parse_error.empty() ? "not an object" : parse_error);
      return false;
    }
    out->push_back(std::move(v));
  }
  return true;
}

bool LoadLedger(const std::string& path, std::vector<Decision>* out,
                std::string* error) {
  std::vector<JsonValue> objects;
  if (!LoadJsonlObjects(path, &objects, error)) return false;
  for (const JsonValue& obj : objects) {
    Decision d;
    d.seq = Num(obj, "seq");
    d.tick = Num(obj, "tick");
    d.collection = Num(obj, "collection");
    d.policy = Str(obj, "policy");
    d.reason = Str(obj, "reason");
    d.chosen_interval = Num(obj, "chosen_interval");
    d.target = Num(obj, "target");
    d.io_pct = Num(obj, "io_pct");
    d.garbage_pct = Num(obj, "garbage_pct");
    d.actual_garbage_bytes = Num(obj, "actual_garbage_bytes");
    d.estimate_bytes = Num(obj, "estimate_bytes");
    d.db_used_bytes = Num(obj, "db_used_bytes");
    out->push_back(std::move(d));
  }
  return true;
}

LedgerSummary Summarize(const std::string& path,
                        const std::vector<Decision>& decisions) {
  LedgerSummary s;
  s.path = path;
  s.decisions = decisions.size();

  double interval_sum = 0.0;
  double abs_delta_sum = 0.0;
  size_t moves = 0;
  size_t flips = 0;
  double prev_interval = 0.0;
  double prev_delta = 0.0;
  bool have_prev = false;
  bool have_prev_delta = false;
  double io_sum = 0.0;
  double garbage_sum = 0.0;
  double target_sum = 0.0;
  double est_err_sum = 0.0;

  for (const Decision& d : decisions) {
    if (d.collection == 0.0) ++s.idle_decisions;
    ++s.policies[d.policy];
    ++s.reasons[d.reason];
    interval_sum += d.chosen_interval;
    io_sum += d.io_pct;
    garbage_sum += d.garbage_pct;
    target_sum += d.target;
    if (have_prev) {
      const double delta = d.chosen_interval - prev_interval;
      if (delta != 0.0) {
        ++s.rate_changes;
        abs_delta_sum += std::fabs(delta);
        ++moves;
        if (have_prev_delta && delta * prev_delta < 0.0) ++flips;
        prev_delta = delta;
        have_prev_delta = true;
      }
    }
    prev_interval = d.chosen_interval;
    have_prev = true;
    if (d.db_used_bytes > 0.0) {
      const double err_pp =
          100.0 *
          std::fabs(d.estimate_bytes - d.actual_garbage_bytes) /
          d.db_used_bytes;
      est_err_sum += err_pp;
      if (err_pp > s.estimator_error_max_pp) {
        s.estimator_error_max_pp = err_pp;
      }
      ++s.estimator_samples;
    }
  }

  const double n = static_cast<double>(s.decisions);
  if (s.decisions > 0) {
    s.mean_io_pct = io_sum / n;
    s.mean_garbage_pct = garbage_sum / n;
    s.mean_target = target_sum / n;
    const double mean_interval = interval_sum / n;
    if (moves > 0 && mean_interval > 0.0) {
      s.oscillation_index =
          (abs_delta_sum / static_cast<double>(moves)) / mean_interval;
    }
    if (moves > 1) {
      s.flip_fraction =
          static_cast<double>(flips) / static_cast<double>(moves - 1);
    }
  }
  if (s.estimator_samples > 0) {
    s.estimator_error_mean_pp =
        est_err_sum / static_cast<double>(s.estimator_samples);
  }

  // Dominant policy decides which quantity `target` denotes.
  size_t best = 0;
  std::string dominant;
  for (const auto& [policy, count] : s.policies) {
    if (count > best) {
      best = count;
      dominant = policy;
    }
  }
  if (dominant == "saio" || dominant == "coupled") {
    s.target_kind = "io";
  } else if (dominant == "saga") {
    s.target_kind = "garbage";
  }
  return s;
}

void PrintSummary(const LedgerSummary& s, const char* label) {
  std::printf("%s ledger=%s\n", label, s.path.c_str());
  std::printf("%s decisions=%zu idle=%zu\n", label, s.decisions,
              s.idle_decisions);
  for (const auto& [policy, count] : s.policies) {
    std::printf("%s policy %s=%zu\n", label, policy.c_str(), count);
  }
  for (const auto& [reason, count] : s.reasons) {
    std::printf("%s reason %s=%zu\n", label, reason.c_str(), count);
  }
  std::printf("%s rate_changes=%zu oscillation_index=%.4f "
              "flip_fraction=%.4f\n",
              label, s.rate_changes, s.oscillation_index, s.flip_fraction);
  std::printf("%s estimator_error_mean_pp=%.4f "
              "estimator_error_max_pp=%.4f\n",
              label, s.estimator_error_mean_pp, s.estimator_error_max_pp);
  std::printf("%s mean_io_pct=%.4f mean_garbage_pct=%.4f "
              "mean_target=%.4f target_kind=%s\n",
              label, s.mean_io_pct, s.mean_garbage_pct, s.mean_target,
              s.target_kind.c_str());
}

// Mean absolute gap between the oracle and estimator garbage gauges
// across time-series frames (the fig6 tracking error). Returns the
// number of frames that carried both gauges.
size_t TimeSeriesTrackingError(const std::vector<JsonValue>& frames,
                               double* mean_gap_pp) {
  size_t samples = 0;
  double gap_sum = 0.0;
  for (const JsonValue& frame : frames) {
    const JsonValue* gauges = frame.Find("gauges");
    if (gauges == nullptr || !gauges->is_object()) continue;
    const JsonValue* actual = gauges->Find("sim.garbage_pct");
    const JsonValue* estimate = gauges->Find("sim.estimator_garbage_pct");
    if (actual == nullptr || !actual->is_number() || estimate == nullptr ||
        !estimate->is_number()) {
      continue;
    }
    gap_sum += std::fabs(actual->number_value() - estimate->number_value());
    ++samples;
  }
  *mean_gap_pp = samples > 0 ? gap_sum / static_cast<double>(samples) : 0.0;
  return samples;
}

// Picks the target for one accuracy axis: an explicit flag wins, then a
// run whose policy natively targets that axis, then the paper's default.
double ResolveTarget(double flag_value, const LedgerSummary& a,
                     const LedgerSummary& b, const std::string& kind) {
  if (flag_value >= 0.0) return flag_value;
  if (a.target_kind == kind && a.decisions > 0) return a.mean_target;
  if (b.target_kind == kind && b.decisions > 0) return b.mean_target;
  return 10.0;
}

}  // namespace

int main(int argc, char** argv) {
  using odbgc::Flags;

  Flags flags;
  std::string error;
  if (!Flags::Parse(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const bool help = flags.GetBool("help", false);
  const bool diff = flags.GetBool("diff", false);
  const std::string ledger_path = flags.GetString("ledger", "");
  const std::string timeseries_path = flags.GetString("timeseries", "");
  const std::string a_path = flags.GetString("a", "");
  const std::string b_path = flags.GetString("b", "");
  const std::string label_a = flags.GetString("label-a", "A");
  const std::string label_b = flags.GetString("label-b", "B");
  const double io_target = flags.GetDouble("io-target", -1.0);
  const double garbage_target = flags.GetDouble("garbage-target", -1.0);
  if (help || (diff ? (a_path.empty() || b_path.empty())
                    : ledger_path.empty())) {
    std::fprintf(
        stderr,
        "usage: odbgc_analyze --ledger=DEC.jsonl [--timeseries=TS.jsonl]\n"
        "       odbgc_analyze --diff --a=DEC.jsonl --b=DEC.jsonl\n"
        "                     [--label-a=NAME --label-b=NAME]\n"
        "                     [--io-target=PCT --garbage-target=PCT]\n");
    return help ? 0 : 2;
  }
  for (const std::string& key : flags.MalformedKeys()) {
    std::fprintf(stderr, "error: malformed value --%s=%s\n", key.c_str(),
                 flags.GetString(key, "").c_str());
    return 2;
  }
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
    return 2;
  }

  if (!diff) {
    std::vector<Decision> decisions;
    if (!LoadLedger(ledger_path, &decisions, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 3;
    }
    PrintSummary(Summarize(ledger_path, decisions), "run");
    if (!timeseries_path.empty()) {
      std::vector<JsonValue> frames;
      if (!LoadJsonlObjects(timeseries_path, &frames, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 3;
      }
      double mean_gap_pp = 0.0;
      const size_t samples = TimeSeriesTrackingError(frames, &mean_gap_pp);
      std::printf("run timeseries_frames=%zu tracking_samples=%zu "
                  "tracking_error_mean_pp=%.4f\n",
                  frames.size(), samples, mean_gap_pp);
    }
    return 0;
  }

  std::vector<Decision> decisions_a;
  std::vector<Decision> decisions_b;
  if (!LoadLedger(a_path, &decisions_a, &error) ||
      !LoadLedger(b_path, &decisions_b, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 3;
  }
  const LedgerSummary a = Summarize(a_path, decisions_a);
  const LedgerSummary b = Summarize(b_path, decisions_b);
  PrintSummary(a, label_a.c_str());
  PrintSummary(b, label_b.c_str());

  const double io_ref = ResolveTarget(io_target, a, b, "io");
  const double garbage_ref = ResolveTarget(garbage_target, a, b, "garbage");
  const double io_dev_a = std::fabs(a.mean_io_pct - io_ref);
  const double io_dev_b = std::fabs(b.mean_io_pct - io_ref);
  const double garbage_dev_a = std::fabs(a.mean_garbage_pct - garbage_ref);
  const double garbage_dev_b = std::fabs(b.mean_garbage_pct - garbage_ref);

  std::printf("diff io_target_pct=%.4f garbage_target_pct=%.4f\n", io_ref,
              garbage_ref);
  std::printf("diff io_dev %s=%.4f %s=%.4f io_accuracy_winner=%s\n",
              label_a.c_str(), io_dev_a, label_b.c_str(), io_dev_b,
              io_dev_a <= io_dev_b ? label_a.c_str() : label_b.c_str());
  std::printf(
      "diff garbage_dev %s=%.4f %s=%.4f garbage_accuracy_winner=%s\n",
      label_a.c_str(), garbage_dev_a, label_b.c_str(), garbage_dev_b,
      garbage_dev_a <= garbage_dev_b ? label_a.c_str() : label_b.c_str());
  std::printf(
      "diff oscillation %s=%.4f %s=%.4f oscillation_winner=%s\n",
      label_a.c_str(), a.oscillation_index, label_b.c_str(),
      b.oscillation_index,
      a.oscillation_index <= b.oscillation_index ? label_a.c_str()
                                                 : label_b.c_str());
  std::printf(
      "diff estimator_error_mean_pp %s=%.4f %s=%.4f estimator_winner=%s\n",
      label_a.c_str(), a.estimator_error_mean_pp, label_b.c_str(),
      b.estimator_error_mean_pp,
      a.estimator_error_mean_pp <= b.estimator_error_mean_pp
          ? label_a.c_str()
          : label_b.c_str());
  return 0;
}
