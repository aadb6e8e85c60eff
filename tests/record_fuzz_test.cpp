// Deterministic mutation fuzz over every text codec built on
// util::record: the shard wire, service job payloads and frames,
// checkpoint snapshots (with their stale checksum, and re-checksummed
// so mutations reach the grammar and restore_model), and the four
// models' state blocks.
//
// The corpus is the pinned documents of codec_fixtures.hpp. Each input
// is a corpus document after 1-3 mutations (byte flip, insert, delete,
// truncation, a splice of two documents, or a decimal token replaced by
// 0, n±1, 2^32 or 2^62), plus every document truncated at every line
// boundary. The pass rule, per input: decode throws exactly the format's
// named error, or it returns a value v and decode(encode(v)) == v bit
// for bit (compared through the exact encoding). Any other exception is
// a failure; so is a crash or, under the ASan+UBSan tier, a sanitizer
// report. Service frames are also fed to the prefix parser in random
// chunks, as a connection delivers them, which must reach decode_frame's
// frame or its refusal.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/rng.hpp"
#include "tests/codec_fixtures.hpp"

namespace sops {
namespace {

// Mutated inputs per corpus: the whole test takes about 3 s in a
// Release build.
constexpr int kMutations = 20000;

/// Decodes `input` under a format's pass rule. Returns true if it was
/// accepted (and round-tripped), false if refused with the named error.
using Check = std::function<bool(const std::string& input)>;

void expect_same_model_state(std::string_view tag,
                             const model::ChainModel& m) {
  const std::vector<std::string> once = m.save_state();
  const auto again = model::require_model(tag).restore(once);
  EXPECT_EQ(again->save_state(), once) << "model " << tag;
}

bool check_wire(const std::string& input) {
  shard::ShardFile v;
  try {
    v = shard::decode(input);
  } catch (const shard::WireError&) {
    return false;
  }
  const std::string once = shard::encode(v.job, v.results, v.manifest);
  const shard::ShardFile w = shard::decode(once);
  EXPECT_EQ(shard::encode(w.job, w.results, w.manifest), once);
  return true;
}

bool check_job_payload(const std::string& input) {
  shard::JobSpec v;
  try {
    v = service::decode_job_payload(input);
  } catch (const service::ProtocolError&) {
    return false;
  }
  const std::string once = service::encode_job_payload(v);
  EXPECT_EQ(service::encode_job_payload(service::decode_job_payload(once)),
            once);
  return true;
}

void expect_same_frame(const service::Frame& a, const service::Frame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.args, b.args);
  EXPECT_EQ(a.payload, b.payload);
}

/// Feeds `input` to the prefix parser in random chunks, then ends the
/// stream, and compares the outcome with decode_frame's: the same frame,
/// or the same refusal. A frame that ends before the input does is
/// decode_frame's trailing-content refusal, and the bytes it spans must
/// decode to that frame.
void expect_streamed_like_whole(const std::string& input, util::Rng& rng) {
  std::string buffer;
  service::Frame streamed;
  std::size_t used = 0;
  std::string refusal;
  try {
    for (std::size_t fed = 0; used == 0 && fed < input.size();) {
      const std::size_t n = 1 + rng.below(input.size() - fed);
      buffer.append(input, fed, n);
      fed += n;
      used = service::decode_frame_prefix(buffer, /*at_end=*/false, streamed);
    }
    if (used == 0) {
      used = service::decode_frame_prefix(buffer, /*at_end=*/true, streamed);
    }
  } catch (const service::ProtocolError& e) {
    refusal = e.what();
  }
  service::Frame whole;
  try {
    whole = service::decode_frame(input);
  } catch (const service::ProtocolError& e) {
    if (!refusal.empty()) {
      EXPECT_EQ(refusal, e.what());
      return;
    }
    EXPECT_LT(used, input.size()) << e.what();
    EXPECT_NE(std::string(e.what()).find("trailing content"),
              std::string::npos)
        << e.what();
    expect_same_frame(service::decode_frame(input.substr(0, used)), streamed);
    return;
  }
  EXPECT_EQ(refusal, "") << "decode_frame accepted what the stream refused";
  EXPECT_EQ(used, input.size());
  expect_same_frame(whole, streamed);
}

Check check_frame(std::uint64_t chunk_seed) {
  return [rng = util::Rng(chunk_seed)](const std::string& input) mutable {
    expect_streamed_like_whole(input, rng);
    service::Frame v;
    try {
      v = service::decode_frame(input);
    } catch (const service::ProtocolError&) {
      return false;
    }
    expect_same_frame(service::decode_frame(service::encode_frame(v)), v);
    return true;
  };
}

bool check_snapshot(const std::string& input) {
  checkpoint::Snapshot v;
  try {
    v = checkpoint::decode(input);
  } catch (const checkpoint::SnapshotError&) {
    return false;
  }
  const std::string once = checkpoint::encode(v);
  EXPECT_EQ(checkpoint::encode(checkpoint::decode(once)), once);
  if (!v.state.empty()) {
    try {
      expect_same_model_state(v.model, *checkpoint::restore_model(v));
    } catch (const checkpoint::SnapshotError&) {
    }
  }
  return true;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  return lines;
}

Check check_state(std::string tag) {
  return [tag](const std::string& input) {
    std::unique_ptr<model::ChainModel> m;
    try {
      m = model::require_model(tag).restore(split_lines(input));
    } catch (const model::ModelError&) {
      return false;
    }
    expect_same_model_state(tag, *m);
    return true;
  };
}

/// Recomputes a snapshot's FNV-1a checksum line over the (mutated)
/// prefix, when the document still has one to rewrite.
std::string rechecksum(std::string text) {
  const auto pos = text.rfind("\nchecksum ");
  if (pos == std::string::npos || text.size() < pos + 26) return text;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i <= pos; ++i) {
    h ^= static_cast<unsigned char>(text[i]);
    h *= 0x100000001b3ULL;
  }
  std::string hex;
  util::record::put_hex16(hex, h);
  text.replace(pos + 10, 16, hex);
  return text;
}

// ---- mutations ------------------------------------------------------------

char interesting_byte(util::Rng& rng) {
  static constexpr std::string_view kBytes{" \n\t\r0179-x.pna\0", 16};
  return rng.below(4) == 0 ? static_cast<char>(rng.below(256))
                           : kBytes[rng.below(kBytes.size())];
}

/// Replaces a random all-digit token with 0, n-1, n+1, 2^32 or 2^62.
void replace_count(std::string& doc, util::Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  std::size_t i = 0;
  while (i < doc.size()) {
    const std::size_t end = doc.find_first_of(" \n", i);
    const std::size_t stop = end == std::string::npos ? doc.size() : end;
    if (stop > i && doc.find_first_not_of("0123456789", i) >= stop) {
      tokens.emplace_back(i, stop - i);
    }
    i = stop + 1;
  }
  if (tokens.empty()) return;
  const auto [at, len] = tokens[rng.below(tokens.size())];
  const auto n = util::record::parse_u64(std::string_view(doc).substr(at, len));
  const std::uint64_t v = n.value_or(0);
  const std::uint64_t choices[] = {0, v - 1, v + 1, std::uint64_t{1} << 32,
                                   std::uint64_t{1} << 62};
  std::string repl;
  util::record::put_u64(repl, choices[rng.below(5)]);
  doc.replace(at, len, repl);
}

std::string mutate(const std::string& doc,
                   const std::vector<std::string>& corpus, util::Rng& rng) {
  std::string out = doc;
  for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {
    const std::size_t pos = rng.below(out.size() + 1);
    switch (rng.below(6)) {
      case 0:  // byte flip
        if (pos < out.size()) out[pos] = interesting_byte(rng);
        break;
      case 1:  // insert
        out.insert(pos, 1, interesting_byte(rng));
        break;
      case 2:  // delete
        out.erase(std::min(pos, out.size()), 1 + rng.below(8));
        break;
      case 3:  // truncate at a random offset
        out.resize(pos);
        break;
      case 4: {  // splice: this prefix, another document's suffix
        const std::string& other = corpus[rng.below(corpus.size())];
        out = out.substr(0, pos) + other.substr(rng.below(other.size() + 1));
        break;
      }
      default:
        replace_count(out, rng);
        break;
    }
  }
  return out;
}

/// Runs the pass rule over every corpus document, each truncated at
/// every line boundary, and kMutations mutated inputs. Splices draw
/// their second document from `donors` (default: the corpus).
void fuzz(const std::vector<std::string>& corpus, const Check& check,
          std::uint64_t seed, bool fix_checksum = false,
          const std::vector<std::string>& donors = {}) {
  util::Rng rng(seed);
  int accepted = 0;
  const auto run = [&](std::string input) {
    if (fix_checksum) input = rechecksum(std::move(input));
    try {
      accepted += check(input) ? 1 : 0;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not the format's named error: " << e.what()
                    << "\ninput:\n"
                    << input;
    }
  };
  for (const std::string& doc : corpus) {
    ASSERT_TRUE(check(doc)) << "corpus document refused:\n" << doc;
    for (std::size_t p = doc.find('\n'); p != std::string::npos;
         p = doc.find('\n', p + 1)) {
      run(doc.substr(0, p));
      run(doc.substr(0, p + 1));
    }
  }
  for (int i = 0; i < kMutations && !::testing::Test::HasFailure(); ++i) {
    run(mutate(corpus[rng.below(corpus.size())],
               donors.empty() ? corpus : donors, rng));
  }
  ::testing::Test::RecordProperty("accepted", accepted);
}

// ---- corpora --------------------------------------------------------------

std::vector<std::string> wire_corpus() {
  const shard::JobSpec job = fixtures::tricky_job();
  return {shard::encode(job, fixtures::tricky_results(job)),
          service::encode_job_payload(job)};
}

std::vector<std::string> snapshot_corpus() {
  std::vector<std::string> docs{
      checkpoint::encode(fixtures::sample_snapshot())};
  for (const std::string& tag : fixtures::model_tags()) {
    checkpoint::Snapshot snap = fixtures::sample_snapshot();
    snap.model = tag;
    snap.state = fixtures::model_state(tag);
    docs.push_back(checkpoint::encode(snap));
  }
  checkpoint::Snapshot done = fixtures::sample_snapshot();
  done.complete = true;
  done.state.clear();
  done.aux = {0.5, -0.0};
  docs.push_back(checkpoint::encode(done));
  return docs;
}

std::vector<std::string> frame_corpus() {
  std::vector<std::string> frames;
  for (const service::Frame& frame : fixtures::sample_frames()) {
    frames.push_back(service::encode_frame(frame));
  }
  frames.push_back(service::encode_frame(
      {service::FrameType::kResultOk, {"j1"}, wire_corpus()[0]}));
  return frames;
}

TEST(RecordFuzz, WireDocuments) { fuzz(wire_corpus(), check_wire, 1); }

TEST(RecordFuzz, ServiceJobPayloads) {
  // A submission carries no results, so only the job document is a
  // valid payload; the result document still feeds splices.
  fuzz({wire_corpus()[1]}, check_job_payload, 2, /*fix_checksum=*/false,
       wire_corpus());
}

TEST(RecordFuzz, ServiceFrames) { fuzz(frame_corpus(), check_frame(33), 3); }

TEST(RecordFuzz, SnapshotsWithStaleChecksums) {
  fuzz(snapshot_corpus(), check_snapshot, 4);
}

TEST(RecordFuzz, SnapshotsReChecksummed) {
  fuzz(snapshot_corpus(), check_snapshot, 5, /*fix_checksum=*/true);
}

TEST(RecordFuzz, ModelStateBlocks) {
  std::vector<std::string> all;
  for (const std::string& tag : fixtures::model_tags()) {
    all.push_back(fixtures::join_lines(fixtures::model_state(tag)));
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string& tag = fixtures::model_tags()[i];
    SCOPED_TRACE(tag);
    fuzz({all[i]}, check_state(tag), 6 + i, /*fix_checksum=*/false, all);
  }
}

}  // namespace
}  // namespace sops
