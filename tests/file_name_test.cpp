// Interned file names: one id per distinct name, id 0 for "no file", and
// names that stay valid however many more are interned.
#include "pagecache/file_name.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace pcs::cache {
namespace {

TEST(FileName, SameNameSameId) {
  const FileName a = std::string("alpha.dat");
  const FileName b = "alpha.dat";
  const FileName c(std::string_view("alpha.dat"));
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.id(), c.id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, FileName("beta.dat"));
  EXPECT_EQ(a.str(), "alpha.dat");
}

TEST(FileName, EmptyNameIsNoFile) {
  EXPECT_EQ(FileName().id(), 0u);
  EXPECT_TRUE(FileName().empty());
  EXPECT_EQ(FileName(""), FileName());
  EXPECT_EQ(FileName(std::string()).id(), 0u);
  EXPECT_EQ(FileName().str(), "");
  EXPECT_FALSE(FileName("x").empty());
}

TEST(FileName, NamesStayValidAfterManyInterns) {
  const FileName first = "first-interned";
  const std::string& first_ref = first.str();
  std::vector<FileName> ids;
  for (int i = 0; i < 10000; ++i) ids.emplace_back("bulk-" + std::to_string(i));
  // The reference taken before the table grew still reads the same name.
  EXPECT_EQ(first_ref, "first-interned");
  EXPECT_EQ(&first_ref, &first.str());
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(ids[i].str(), "bulk-" + std::to_string(i));
    ASSERT_EQ(ids[i], FileName("bulk-" + std::to_string(i)));
  }
  // Distinct names got distinct ids.
  for (int i = 1; i < 10000; ++i) ASSERT_NE(ids[i].id(), ids[i - 1].id());
}

TEST(FileName, StreamsItsName) {
  std::ostringstream os;
  os << FileName("streamed.bin");
  EXPECT_EQ(os.str(), "streamed.bin");
}

TEST(FileName, TableIsPerThread) {
  // Ids are meaningful only on the interning thread: a fresh thread starts
  // its own table, so its first name gets id 1 whatever this thread holds.
  const FileName here = "per-thread-probe";
  std::uint32_t there_id = 0;
  std::string there_name;
  std::thread worker([&] {
    const FileName f = "another-thread-name";
    there_id = f.id();
    there_name = f.str();
  });
  worker.join();
  EXPECT_EQ(there_id, 1u);
  EXPECT_EQ(there_name, "another-thread-name");
  EXPECT_EQ(here.str(), "per-thread-probe");
}

}  // namespace
}  // namespace pcs::cache
