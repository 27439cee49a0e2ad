#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "syclrt/buffer.hpp"
#include "syclrt/queue.hpp"

namespace aks::syclrt {
namespace {

TEST(Range, SizeIsProduct) {
  EXPECT_EQ(Range<1>(5).size(), 5u);
  EXPECT_EQ((Range<2>(3, 4).size()), 12u);
  EXPECT_EQ((Range<3>(2, 3, 4).size()), 24u);
}

TEST(Range, IndexAccessAndMutation) {
  Range<2> r(3, 4);
  EXPECT_EQ(r[0], 3u);
  EXPECT_EQ(r[1], 4u);
  r[1] = 7;
  EXPECT_EQ(r.size(), 21u);
}

TEST(NdRange, GroupCountRoundsUp) {
  NdRange<2> range(Range<2>(10, 10), Range<2>(4, 4));
  EXPECT_EQ(range.group_count()[0], 3u);
  EXPECT_EQ(range.group_count()[1], 3u);
  EXPECT_EQ(range.padded_global()[0], 12u);
  EXPECT_EQ(range.padded_global()[1], 12u);
}

TEST(NdRange, ExactDivisionNoPadding) {
  NdRange<2> range(Range<2>(8, 16), Range<2>(4, 8));
  EXPECT_EQ(range.group_count().size(), 4u);
  EXPECT_EQ(range.padded_global(), (Range<2>(8, 16)));
}

TEST(NdRange, ZeroDimensionsThrow) {
  EXPECT_THROW(NdRange<1>(Range<1>(0), Range<1>(1)), common::Error);
  EXPECT_THROW(NdRange<1>(Range<1>(4), Range<1>(0)), common::Error);
}

TEST(NdItem, GlobalIdComposition) {
  NdItem<2> item(Id<2>(2, 1), Id<2>(3, 0), Range<2>(4, 2), Range<2>(16, 4));
  EXPECT_EQ(item.get_global_id(0), 11u);
  EXPECT_EQ(item.get_global_id(1), 2u);
  EXPECT_EQ(item.get_local_id(0), 3u);
  EXPECT_EQ(item.get_group(1), 1u);
  EXPECT_EQ(item.get_local_range(0), 4u);
  EXPECT_EQ(item.get_global_range(0), 16u);
  EXPECT_TRUE(item.in_range());
}

TEST(NdItem, OutOfLogicalRangeDetected) {
  // Group 2 with local range 4 covers global ids 8..11, logical range is 10.
  NdItem<1> inside(Id<1>(2), Id<1>(1), Range<1>(4), Range<1>(10));
  EXPECT_TRUE(inside.in_range());
  NdItem<1> outside(Id<1>(2), Id<1>(3), Range<1>(4), Range<1>(10));
  EXPECT_FALSE(outside.in_range());
}

TEST(Buffer, CopyInAndOut) {
  const float host[] = {1.0f, 2.0f, 3.0f};
  Buffer<float> buf{std::span<const float>(host)};
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.read()[1], 2.0f);
  buf.write()[1] = 9.0f;
  float out[3] = {};
  buf.copy_to(out);
  EXPECT_EQ(out[1], 9.0f);
}

TEST(Buffer, CopyToSizeMismatchThrows) {
  Buffer<int> buf(4);
  int too_small[2];
  EXPECT_THROW(buf.copy_to(too_small), common::Error);
}

TEST(Queue, ParallelForVisitsEveryItemOnce) {
  Queue queue;
  std::vector<std::atomic<int>> hits(64);
  queue.parallel_for(NdRange<2>(Range<2>(8, 8), Range<2>(4, 4)),
                     [&](const NdItem<2>& item) {
                       ++hits[item.get_global_id(0) * 8 + item.get_global_id(1)];
                     });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Queue, PaddedItemsAreLaunchedButFlagged) {
  Queue queue;
  std::atomic<int> in_range{0};
  std::atomic<int> padded{0};
  // Global 5 with local 4 pads to 8 items.
  const auto event = queue.parallel_for(
      NdRange<1>(Range<1>(5), Range<1>(4)), [&](const NdItem<1>& item) {
        (item.in_range() ? in_range : padded)++;
      });
  EXPECT_EQ(in_range.load(), 5);
  EXPECT_EQ(padded.load(), 3);
  EXPECT_EQ(event.item_count, 8u);
  EXPECT_EQ(event.group_count, 2u);
}

TEST(Queue, EventReportsTiming) {
  Queue queue;
  const auto event = queue.parallel_for(
      NdRange<1>(Range<1>(16), Range<1>(4)), [](const NdItem<1>&) {});
  EXPECT_GE(event.elapsed_seconds, 0.0);
}

TEST(Queue, WorkGroupSizeLimitEnforced) {
  Device tiny = Device::host();
  tiny.max_work_group_size = 16;
  Queue queue(tiny);
  EXPECT_THROW(queue.parallel_for(NdRange<2>(Range<2>(32, 32), Range<2>(8, 8)),
                                  [](const NdItem<2>&) {}),
               common::Error);
}

TEST(Queue, ExceptionInKernelPropagates) {
  Queue queue;
  EXPECT_THROW(
      queue.parallel_for(NdRange<1>(Range<1>(8), Range<1>(4)),
                         [](const NdItem<1>& item) {
                           if (item.get_global_id(0) == 3) {
                             throw common::Error("kernel failure");
                           }
                         }),
      common::Error);
}

TEST(Queue, ProfileAccumulatesAcrossSubmissions) {
  Queue queue;
  EXPECT_EQ(queue.profile().submissions, 0u);
  queue.parallel_for(NdRange<1>(Range<1>(16), Range<1>(4)),
                     [](const NdItem<1>&) {});
  queue.parallel_for(NdRange<1>(Range<1>(1), Range<1>(1)),
                     [](const NdItem<1>&) {});
  EXPECT_EQ(queue.profile().submissions, 2u);
  EXPECT_EQ(queue.profile().groups_launched, 5u);  // 4 groups + 1 group
  EXPECT_EQ(queue.profile().items_launched, 17u);
  EXPECT_GE(queue.profile().total_seconds, 0.0);
  queue.reset_profile();
  EXPECT_EQ(queue.profile().submissions, 0u);
}

TEST(Queue, ThreeDimensionalRangeCoversAllItems) {
  Queue queue;
  std::vector<std::atomic<int>> hits(2 * 3 * 4);
  queue.parallel_for(
      NdRange<3>(Range<3>(2, 3, 4), Range<3>(1, 3, 2)),
      [&](const NdItem<3>& item) {
        if (!item.in_range()) return;
        const std::size_t flat = (item.get_global_id(0) * 3 +
                                  item.get_global_id(1)) * 4 +
                                 item.get_global_id(2);
        ++hits[flat];
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Device, HostDeviceHasSaneDefaults) {
  const Device d = Device::host();
  EXPECT_FALSE(d.name.empty());
  EXPECT_GE(d.compute_units, 1u);
  EXPECT_GE(d.max_work_group_size, 1u);
}

TEST(Buffer, AtBoundsChecksBothOverloads) {
  Buffer<int> buf(3, 7);
  buf.at(2) = 9;
  EXPECT_EQ(buf.at(2), 9);
  EXPECT_THROW((void)buf.at(3), common::Error);
  const Buffer<int>& cref = buf;
  EXPECT_EQ(cref.at(0), 7);
  EXPECT_THROW((void)cref.at(5), common::Error);
}

TEST(Buffer, CopyFromReplacesContents) {
  Buffer<float> buf(4);
  const std::vector<float> host = {1.0f, 2.0f, 3.0f, 4.0f};
  buf.copy_from(host);
  EXPECT_EQ(buf.read()[0], 1.0f);
  EXPECT_EQ(buf.read()[3], 4.0f);
  const std::vector<float> wrong_size = {1.0f};
  EXPECT_THROW(buf.copy_from(wrong_size), common::Error);
}

TEST(Queue, DeterministicReplayVisitsGroupsInCanonicalOrder) {
  Queue queue;
  queue.set_deterministic_replay(true);
  EXPECT_TRUE(queue.deterministic_replay());
  std::vector<std::size_t> order;
  queue.parallel_for(NdRange<2>(Range<2>(4, 6), Range<2>(2, 2)),
                     [&](const NdItem<2>& item) {
                       if (item.get_local_id(0) == 0 &&
                           item.get_local_id(1) == 0) {
                         order.push_back(item.get_group(0) * 3 +
                                         item.get_group(1));
                       }
                     });
  ASSERT_EQ(order.size(), 6u);  // 2x3 groups
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Queue, ReplayMatchesPooledExecutionResults) {
  const auto run = [](bool replay) {
    Queue queue;
    queue.set_deterministic_replay(replay);
    std::vector<float> out(64, 0.0f);
    std::span<float> view(out);
    queue.parallel_for(NdRange<1>(Range<1>(60), Range<1>(8)),
                       [view](const NdItem<1>& item) {
                         if (!item.in_range()) return;
                         const std::size_t i = item.get_global_id(0);
                         view[i] = static_cast<float>(i) * 0.5f;
                       });
    return out;
  };
  EXPECT_EQ(run(true), run(false));
}

/// A kernel with a work-group entry: records each call's group and logical
/// range, and which item ran in which of its two passes.
struct GroupEntryKernel {
  std::mutex* mutex;
  std::vector<std::size_t>* groups;
  std::vector<std::pair<int, std::size_t>>* trail;  // (pass, global id)
  std::size_t* logical;

  void operator()(const WorkGroup<1>& group) const {
    std::vector<std::pair<int, std::size_t>> local;
    std::size_t range = 0;
    for (int pass = 0; pass < 2; ++pass) {
      group.parallel_for_work_item([&](const NdItem<1>& item) {
        local.emplace_back(pass, item.get_global_id(0));
        range = item.get_global_range(0);
      });
    }
    std::lock_guard lock(*mutex);
    *logical = range;
    groups->push_back(group.get_group(0));
    trail->insert(trail->end(), local.begin(), local.end());
  }
};

/// The 2-D counterpart: records each call's group and the logical range
/// and number of items its one pass saw.
struct GroupEntryKernel2D {
  std::mutex* mutex;
  std::set<std::pair<std::size_t, std::size_t>>* groups;
  std::size_t* items;
  Range<2>* logical;

  void operator()(const WorkGroup<2>& group) const {
    std::size_t count = 0;
    Range<2> range;
    group.parallel_for_work_item([&](const NdItem<2>& item) {
      ++count;
      range = Range<2>(item.get_global_range(0), item.get_global_range(1));
    });
    std::lock_guard lock(*mutex);
    groups->emplace(group.get_group(0), group.get_group(1));
    *items += count;
    *logical = range;
  }
};

TEST(Queue, WorkGroupEntryRunsOncePerGroupOnPoolAndReplay) {
  for (const bool replay : {false, true}) {
    Queue queue;
    queue.set_deterministic_replay(replay);
    std::mutex mutex;
    std::vector<std::size_t> groups;
    std::vector<std::pair<int, std::size_t>> trail;
    std::size_t logical = 0;
    // Logical range 10 padded to 12: three groups of four items.
    const auto event =
        queue.parallel_for(NdRange<1>(Range<1>(10), Range<1>(4)),
                           GroupEntryKernel{&mutex, &groups, &trail, &logical});
    EXPECT_EQ(event.group_count, 3u);
    EXPECT_EQ(event.item_count, 12u);
    EXPECT_EQ(logical, 10u) << "the entry sees the unpadded range";
    std::sort(groups.begin(), groups.end());
    EXPECT_EQ(groups, (std::vector<std::size_t>{0, 1, 2}));
    // Each group makes both passes over all of its items, one pass after
    // the other.
    ASSERT_EQ(trail.size(), 24u);
    for (std::size_t g = 0; g < 3; ++g) {
      const auto* run = &trail[g * 8];
      for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(run[i].first, i < 4 ? 0 : 1);
        EXPECT_EQ(run[i].second % 4, i % 4);
        EXPECT_EQ(run[i].second / 4, run[0].second / 4);
      }
    }

    // A 2-D range: logical 5x3 in 2x2 groups pads to 3x2 groups, and every
    // group is entered once.
    std::set<std::pair<std::size_t, std::size_t>> groups_2d;
    std::size_t items_2d = 0;
    Range<2> logical_2d;
    const auto event_2d = queue.parallel_for(
        NdRange<2>(Range<2>(5, 3), Range<2>(2, 2)),
        GroupEntryKernel2D{&mutex, &groups_2d, &items_2d, &logical_2d});
    EXPECT_EQ(event_2d.group_count, 6u);
    EXPECT_EQ(groups_2d.size(), 6u);
    EXPECT_EQ(items_2d, 24u);
    EXPECT_EQ(logical_2d, (Range<2>(5, 3)));
  }
}

}  // namespace
}  // namespace aks::syclrt
