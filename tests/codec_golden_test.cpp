// Pinned bytes: every text encoder's output on the fixed fixtures of
// codec_fixtures.hpp must equal the files committed under tests/golden/
// byte for byte. Round-trip tests cannot catch an encoder and decoder
// that drift together; these files can.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "tests/codec_fixtures.hpp"

namespace sops {
namespace {

std::string golden(const std::string& name) {
  const std::string path = std::string(SOPS_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing pinned file " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(CodecGolden, WireDocumentBytesArePinned) {
  const shard::JobSpec job = fixtures::tricky_job();
  EXPECT_EQ(shard::encode(job, fixtures::tricky_results(job)),
            golden("codec_wire.txt"));
}

TEST(CodecGolden, SnapshotBytesArePinned) {
  EXPECT_EQ(checkpoint::encode(fixtures::sample_snapshot()),
            golden("codec_snapshot.txt"));
}

TEST(CodecGolden, ModelStateBytesArePinned) {
  for (const std::string& tag : fixtures::model_tags()) {
    SCOPED_TRACE(tag);
    EXPECT_EQ(fixtures::join_lines(fixtures::model_state(tag)),
              golden("codec_state_" + tag + ".txt"));
  }
}

TEST(CodecGolden, FrameBytesArePinned) {
  std::string all;
  for (const service::Frame& frame : fixtures::sample_frames()) {
    all += service::encode_frame(frame);
  }
  EXPECT_EQ(all, golden("codec_frames.txt"));
}

}  // namespace
}  // namespace sops
