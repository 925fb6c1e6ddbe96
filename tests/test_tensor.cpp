#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/error.h"

namespace ss {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructorAndFill) {
  Tensor t({4}, 2.5f);
  EXPECT_EQ(t[3], 2.5f);
  t.fill(-1.0f);
  EXPECT_EQ(t[0], -1.0f);
}

TEST(Tensor, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), ShapeError);
}

TEST(Tensor, At2RowMajor) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at2(0, 0), 1.0f);
  EXPECT_EQ(t.at2(0, 2), 3.0f);
  EXPECT_EQ(t.at2(1, 0), 4.0f);
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_EQ(r[5], 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), ShapeError);
}

TEST(Tensor, AllFiniteDetectsNanAndInf) {
  Tensor t({2}, std::vector<float>{1.0f, 2.0f});
  EXPECT_TRUE(t.all_finite());
  t[1] = std::nanf("");
  EXPECT_FALSE(t.all_finite());
  t[1] = INFINITY;
  EXPECT_FALSE(t.all_finite());
}

TEST(Tensor, MoveToMakesAViewOfTheGivenStorage) {
  Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
  std::vector<float> storage(6, -1.0f);
  t.move_to(storage.data() + 1);
  EXPECT_EQ(t.data(), storage.data() + 1);
  EXPECT_EQ(storage, (std::vector<float>{-1, 1, 2, 3, 4, -1}));
  t.at2(1, 0) = 30.0f;  // writes land in the storage
  EXPECT_EQ(storage[3], 30.0f);
  storage[4] = 40.0f;  // and the view reads them from there
  EXPECT_EQ(t[3], 40.0f);
}

TEST(Tensor, CopyingAViewDeepCopiesIt) {
  std::vector<float> storage(4, 0.0f);
  Tensor view({2, 2}, std::vector<float>{1, 2, 3, 4});
  view.move_to(storage.data());

  const Tensor copy(view);
  EXPECT_NE(copy.data(), storage.data());
  EXPECT_EQ(copy.shape(), view.shape());
  storage[0] = 100.0f;
  EXPECT_EQ(copy[0], 1.0f);

  Tensor assigned({3}, 7.0f);
  assigned = view;
  EXPECT_NE(assigned.data(), storage.data());
  EXPECT_EQ(assigned.shape(), view.shape());
  EXPECT_EQ(assigned[0], 100.0f);
  assigned[1] = -5.0f;
  EXPECT_EQ(storage[1], 2.0f);

  // Copy-assigning into a view makes it own a copy; the storage it viewed
  // keeps its old values.
  Tensor other({2, 2}, 9.0f);
  view = other;
  EXPECT_NE(view.data(), storage.data());
  EXPECT_EQ(storage[2], 3.0f);
  EXPECT_EQ(view[2], 9.0f);
}

TEST(Tensor, MovingAViewKeepsTheView) {
  std::vector<float> storage(3, 0.0f);
  Tensor view({3}, std::vector<float>{1, 2, 3});
  view.move_to(storage.data());
  Tensor moved(std::move(view));
  EXPECT_EQ(moved.data(), storage.data());
  EXPECT_EQ(view.numel(), 0u);
  Tensor assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), storage.data());
  EXPECT_EQ(assigned[2], 3.0f);
}

TEST(Tensor, DimOutOfRangeThrows) {
  Tensor t({2, 2});
  EXPECT_THROW((void)t.dim(2), ShapeError);
}

TEST(ShapeUtils, NumelAndString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 0u);
  EXPECT_EQ(shape_str({2, 3}), "[2, 3]");
}

}  // namespace
}  // namespace ss
