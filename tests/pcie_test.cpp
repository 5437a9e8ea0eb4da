// Unit tests for the PCIe link model.
#include <gtest/gtest.h>

#include <cstdint>

#include "pcie/link.hpp"
#include "sim/cost_model.hpp"

namespace vphi::pcie {
namespace {

using sim::CostModel;

TEST(Link, DmaDurationMatchesModel) {
  const auto& m = CostModel::paper();
  Link link{m};
  const std::uint64_t bytes = 1ull << 20;
  auto g = link.dma(0, bytes, /*fragmented=*/false);
  EXPECT_EQ(g.start, 0u);
  EXPECT_EQ(g.end, m.dma_setup_ns + m.dma_transfer_ns(bytes, false));
  EXPECT_EQ(link.bytes_moved(), bytes);
  EXPECT_EQ(link.dma_count(), 1u);
}

TEST(Link, FragmentedDmaSlower) {
  Link link{CostModel::paper()};
  auto contiguous = link.dma(0, 1 << 20, false);
  auto fragmented = link.dma(0, 1 << 20, true);
  EXPECT_GT(fragmented.end - fragmented.start,
            contiguous.end - contiguous.start);
}

TEST(Link, ConcurrentDmaContends) {
  // Two requesters issuing equal transfers from t=0 should each see on
  // average ~half the link: the second grant starts when the first ends.
  Link link{CostModel::paper()};
  auto g1 = link.dma(0, 4 << 20, false);
  auto g2 = link.dma(0, 4 << 20, false);
  EXPECT_EQ(g2.start, g1.end);
}

}  // namespace
}  // namespace vphi::pcie
