// Layer probes for the layers that have no microbenchmark of their own:
// ChainModel::measure, the checkpoint snapshot codec and its durable
// write, the shard wire codec, and the service frame codec. Each probe
// calls one public function repeatedly on inputs of the size the
// workloads produce and reports ops, bytes per op and ns per op.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/checkpoint/snapshot.hpp"
#include "src/service/protocol.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kMinProbeNs = 100'000'000;

/// Calls `op` at least `min_ops` times and for at least kMinProbeNs;
/// returns ns per call and the call count.
template <class Op>
std::pair<double, std::uint64_t> per_op(std::uint64_t min_ops, Op&& op) {
  std::uint64_t ops = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    op();
    ++ops;
    elapsed = now_ns() - t0;
  } while (ops < min_ops || elapsed < kMinProbeNs);
  return {static_cast<double>(elapsed) / static_cast<double>(ops), ops};
}

void put(Result& out, const std::string& name, std::uint64_t ops,
         std::size_t bytes, double ns_per_op) {
  out.metrics["probe." + name + ".ops"] = static_cast<double>(ops);
  out.metrics["probe." + name + ".bytes"] = static_cast<double>(bytes);
  out.metrics["probe." + name + ".ns_per_op"] = ns_per_op;
}

}  // namespace

void run_probes(const Options& opt, const std::string& result_doc,
                Result& out) {
  ScopedSpan span("probes", 0, "-");

  // measure(): thm13_ckpt's largest task (n = 200) after a short burn-in.
  RunProbe probe;
  const BatchJob job = thm13_job(opt.seed, /*full=*/true, probe);
  probe.reset(job.spec.tasks.size());
  const engine::Task& task = job.spec.tasks.back();
  std::unique_ptr<model::ChainModel> m = job.chain->make_model(task);
  m->run(1'000'000);
  const model::ChainModel& chain = unwrap(*m);
  core::Measurement last;
  auto [measure_ns, measure_ops] =
      per_op(10000, [&] { last = chain.measure(); });
  put(out, "measure", measure_ops, sizeof(core::Measurement), measure_ns);

  // Snapshot codec and durable write, at the size of a thm13_ckpt
  // snapshot taken halfway through that task's samples.
  const std::vector<core::Measurement> series(250, last);
  const checkpoint::Snapshot snap =
      checkpoint::capture(chain, job.spec.name, checkpoint::spec_hash(job.spec),
                          task, /*complete=*/false, series);
  const std::size_t snap_bytes = checkpoint::encode(snap).size();
  auto [enc_ns, enc_ops] =
      per_op(200, [&] { (void)checkpoint::encode(snap).size(); });
  put(out, "ckpt_encode", enc_ops, snap_bytes, enc_ns);
  const std::string path = "probe.sopsckpt";
  auto [write_ns, write_ops] =
      per_op(50, [&] { checkpoint::write_snapshot(path, snap); });
  put(out, "ckpt_write", write_ops, snap_bytes, write_ns);
  auto [read_ns, read_ops] =
      per_op(200, [&] { (void)checkpoint::read_snapshot(path); });
  put(out, "ckpt_read", read_ops, snap_bytes, read_ns);
  std::remove(path.c_str());

  // Shard wire codec on this workload's result document.
  const shard::ShardFile file = shard::decode(result_doc);
  auto [sdec_ns, sdec_ops] =
      per_op(200, [&] { (void)shard::decode(result_doc); });
  put(out, "shard_decode", sdec_ops, result_doc.size(), sdec_ns);
  auto [senc_ns, senc_ops] = per_op(200, [&] {
    (void)shard::encode(file.job, file.results, file.manifest).size();
  });
  put(out, "shard_encode", senc_ops, result_doc.size(), senc_ns);
  out.metrics["shard.encode_us"] = senc_ns * 1e-3;
  out.metrics["shard.decode_us"] = sdec_ns * 1e-3;

  // Service frame codec: the result-ok frame that carries the document.
  service::Frame frame;
  frame.type = service::FrameType::kResultOk;
  frame.args = {"j1"};
  frame.payload = result_doc;
  const std::string bytes = service::encode_frame(frame);
  auto [fenc_ns, fenc_ops] =
      per_op(200, [&] { (void)service::encode_frame(frame).size(); });
  put(out, "frame_encode", fenc_ops, bytes.size(), fenc_ns);
  auto [fdec_ns, fdec_ops] =
      per_op(200, [&] { (void)service::decode_frame(bytes); });
  put(out, "frame_decode", fdec_ops, bytes.size(), fdec_ns);
}

}  // namespace perfbench
