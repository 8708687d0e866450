#include <unistd.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "oo7/generator.h"
#include "trace/trace.h"

namespace odbgc {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(TraceEventTest, Constructors) {
  TraceEvent e = CreateEvent(7, 100, 3);
  EXPECT_EQ(e.kind, EventKind::kCreate);
  EXPECT_EQ(e.a, 7u);
  EXPECT_EQ(e.b, 100u);
  EXPECT_EQ(e.c, 3u);

  EXPECT_EQ(ReadEvent(9).kind, EventKind::kRead);
  EXPECT_EQ(WriteRefEvent(1, 2, 3).b, 2u);
  EXPECT_EQ(GarbageMarkEvent(500, 2).a, 500u);
  EXPECT_EQ(PhaseMarkEvent(Phase::kReorg1).a,
            static_cast<uint32_t>(Phase::kReorg1));
}

TEST(TraceTest, SummarizeCountsKinds) {
  Trace t;
  t.Append(CreateEvent(1, 100, 1));
  t.Append(CreateEvent(2, 50, 0));
  t.Append(ReadEvent(1));
  t.Append(WriteRefEvent(1, 0, 2));
  t.Append(GarbageMarkEvent(75, 3));
  t.Append(PhaseMarkEvent(Phase::kGenDb));
  Trace::Summary s = t.Summarize();
  EXPECT_EQ(s.creates, 2u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.write_refs, 1u);
  EXPECT_EQ(s.garbage_marks, 1u);
  EXPECT_EQ(s.created_bytes, 150u);
  EXPECT_EQ(s.ground_truth_garbage_bytes, 75u);
  EXPECT_EQ(s.ground_truth_garbage_objects, 3u);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  Trace t;
  t.Append(CreateEvent(1, 100, 2));
  t.Append(AddRootEvent(1));
  t.Append(WriteRefEvent(1, 1, 0));
  t.Append(RemoveRootEvent(1));
  t.Append(PhaseMarkEvent(Phase::kTraverse));
  std::string path = TempPath("roundtrip.trace");
  ASSERT_TRUE(t.SaveTo(path));

  Trace loaded;
  ASSERT_EQ(Trace::Load(path, &loaded), TraceLoadError::kNone);
  ASSERT_EQ(loaded.size(), t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(loaded[i], t[i]) << "event " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceTest, AppendedAndLoadedCopiesReportTheSameBounds) {
  Trace t;
  EXPECT_EQ(t.create_id_bound(), 0u);
  EXPECT_EQ(t.created_slot_total(), 0u);
  t.Append(CreateEvent(5, 100, 3));
  t.Append(CreateEvent(2, 50, 0));
  t.Append(WriteRefEvent(5, 0, 2));
  t.Append(ReadEvent(77));  // only creates count
  t.Append(CreateEvent(9, 40, 4, 5));
  EXPECT_EQ(t.create_id_bound(), 10u);
  EXPECT_EQ(t.created_slot_total(), 7u);

  // The OO7 generator appends into a reserved trace; the loader reads
  // the same events through its own pass.
  const Trace oo7 =
      Oo7Generator(Oo7Params::Tiny(), 3).GenerateFullApplication();
  // OO7 ids are dense: one id per create.
  EXPECT_EQ(oo7.create_id_bound(), oo7.Summarize().creates + 1);
  for (const Trace* appended : {static_cast<const Trace*>(&t), &oo7}) {
    const std::string path = TempPath("bounds.trace");
    ASSERT_TRUE(appended->SaveTo(path));
    Trace loaded;
    ASSERT_EQ(Trace::Load(path, &loaded), TraceLoadError::kNone);
    EXPECT_EQ(loaded.create_id_bound(), appended->create_id_bound());
    EXPECT_EQ(loaded.created_slot_total(), appended->created_slot_total());
    std::remove(path.c_str());
  }

  // A failed load leaves no bounds behind.
  Trace reused = oo7;
  EXPECT_EQ(Trace::Load(TempPath("no-such.trace"), &reused),
            TraceLoadError::kOpenFailed);
  EXPECT_EQ(reused.create_id_bound(), 0u);
  EXPECT_EQ(reused.created_slot_total(), 0u);
}

TEST(TraceTest, EmptyTraceRoundTrip) {
  Trace t;
  std::string path = TempPath("empty.trace");
  ASSERT_TRUE(t.SaveTo(path));
  Trace loaded;
  ASSERT_EQ(Trace::Load(path, &loaded), TraceLoadError::kNone);
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsMissingFile) {
  Trace t;
  EXPECT_EQ(Trace::Load(TempPath("does_not_exist.trace"), &t),
            TraceLoadError::kOpenFailed);
}

TEST(TraceTest, LoadRejectsBadMagic) {
  std::string path = TempPath("garbage.trace");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a trace file at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  Trace t;
  EXPECT_EQ(Trace::Load(path, &t), TraceLoadError::kBadMagic);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsTruncatedFile) {
  Trace t;
  t.Append(CreateEvent(1, 100, 2));
  t.Append(CreateEvent(2, 100, 2));
  std::string path = TempPath("truncated.trace");
  ASSERT_TRUE(t.SaveTo(path));
  // Truncate the file in the middle of the second event.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 8), 0);
  Trace loaded;
  EXPECT_EQ(Trace::Load(path, &loaded), TraceLoadError::kTruncatedEvents);
  std::remove(path.c_str());
}

TEST(TraceTest, PhaseNames) {
  EXPECT_EQ(PhaseName(Phase::kGenDb), "GenDB");
  EXPECT_EQ(PhaseName(Phase::kReorg1), "Reorg1");
  EXPECT_EQ(PhaseName(Phase::kTraverse), "Traverse");
  EXPECT_EQ(PhaseName(Phase::kReorg2), "Reorg2");
  EXPECT_EQ(PhaseName(Phase::kNone), "None");
}


TEST(TraceTest, ClusteringHintSurvivesRoundTrip) {
  Trace t;
  t.Append(CreateEvent(1, 100, 2));
  t.Append(CreateEvent(2, 50, 1, /*near_hint=*/1));
  t.Append(IdleMarkEvent(25));
  t.Append(UpdateEvent(1));
  std::string path = TempPath("hints.trace");
  ASSERT_TRUE(t.SaveTo(path));
  Trace loaded;
  ASSERT_EQ(Trace::Load(path, &loaded), TraceLoadError::kNone);
  ASSERT_EQ(loaded.size(), 4u);
  EXPECT_EQ(loaded[1].d, 1u);            // the hint
  EXPECT_EQ(loaded[2].kind, EventKind::kIdleMark);
  EXPECT_EQ(loaded[2].a, 25u);
  EXPECT_EQ(loaded[3].kind, EventKind::kUpdate);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsUnknownEventKind) {
  Trace t;
  t.Append(CreateEvent(1, 100, 0));
  std::string path = TempPath("badkind.trace");
  ASSERT_TRUE(t.SaveTo(path));
  // Corrupt the event kind field (first u32 of the first record, after
  // the 16-byte header).
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 16, SEEK_SET);
  uint32_t bogus = 250;
  ASSERT_EQ(std::fwrite(&bogus, sizeof(bogus), 1, f), 1u);
  std::fclose(f);
  Trace loaded;
  EXPECT_EQ(Trace::Load(path, &loaded), TraceLoadError::kBadEventKind);
  std::remove(path.c_str());
}

TEST(TraceTest, SummarizeCountsUpdates) {
  Trace t;
  t.Append(UpdateEvent(3));
  t.Append(UpdateEvent(3));
  Trace::Summary s = t.Summarize();
  EXPECT_EQ(s.updates, 2u);
  EXPECT_EQ(s.reads, 0u);
}

}  // namespace
}  // namespace odbgc
