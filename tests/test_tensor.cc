/**
 * @file
 * Unit tests for the Tensor substrate.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "tensor/tensor.hh"

namespace se {
namespace {

TEST(Tensor, ShapeAndSize)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.ndim(), 3);
    EXPECT_EQ(t.size(), 24);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(2), 4);
    EXPECT_FALSE(t.empty());
    EXPECT_TRUE(Tensor().empty());
}

TEST(Tensor, FillConstructor)
{
    Tensor t({3, 3}, 2.5f);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(t[i], 2.5f);
}

TEST(Tensor, ValueConstructorChecksCount)
{
    Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
    EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(t.at(1, 1), 4.0f);
    EXPECT_DEATH(Tensor({2, 2}, std::vector<float>{1, 2, 3}), "value");
}

TEST(Tensor, RowMajorIndexing2D)
{
    Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_FLOAT_EQ(t[1 * 3 + 2], 7.0f);
}

TEST(Tensor, RowMajorIndexing4D)
{
    Tensor t({2, 3, 4, 5});
    t.at(1, 2, 3, 4) = 9.0f;
    EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 6});
    for (int64_t i = 0; i < t.size(); ++i)
        t[i] = (float)i;
    Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    for (int64_t i = 0; i < r.size(); ++i)
        EXPECT_FLOAT_EQ(r[i], (float)i);
    EXPECT_DEATH(t.reshaped({5, 5}), "reshape");
}

TEST(Tensor, ApplyAndSum)
{
    Tensor t({4}, 1.0f);
    t.apply([](float v) { return v * 3.0f; });
    EXPECT_DOUBLE_EQ(t.sum(), 12.0);
}

TEST(Tensor, Eye)
{
    Tensor i = eye(3);
    for (int64_t r = 0; r < 3; ++r)
        for (int64_t c = 0; c < 3; ++c)
            EXPECT_FLOAT_EQ(i.at(r, c), r == c ? 1.0f : 0.0f);
}

TEST(Tensor, RandnStatistics)
{
    Rng rng(3);
    Tensor t = randn({1000}, rng, 0.0f, 1.0f);
    double s = 0.0;
    for (int64_t i = 0; i < t.size(); ++i)
        s += t[i];
    EXPECT_NEAR(s / (double)t.size(), 0.0, 0.15);
}

TEST(Tensor, BoundsCheckedAt)
{
    Tensor t({4});
    EXPECT_DEATH(t.at((int64_t)4), "out of range");
}

} // namespace
} // namespace se
