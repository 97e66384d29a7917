// The server's per-command steps for a GET, outside the server, at
// durbench's read_mostly shape: batches of Zipf(0.99) GETs over keys of 'k'
// plus 16 hex digits holding 100-byte values. Each batch's wire bytes are
// fed to a resp::Decoder, decoded into argv slots reused across batches,
// resolved with one Engine::FindCommand, run with Engine::Execute(spec, ...)
// and encoded into one output buffer that is reused too, as
// net::Connection and RespServer::ExecutePending do. Shared by
// command_path_alloc_test and micro_engine's BM_CommandPathGet.

#ifndef MEMDB_BENCH_SUPPORT_COMMAND_PATH_H_
#define MEMDB_BENCH_SUPPORT_COMMAND_PATH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "resp/resp.h"

namespace memdb::bench {

class GetBatchPath {
 public:
  // `keys` keys, all present; `batch` GETs per batch; the key draws are
  // made up front from `seed`, for kBatches distinct batches.
  GetBatchPath(size_t keys, size_t batch, uint64_t seed);

  // Runs the next batch (cycling through the prepared ones) and returns
  // the number of GETs that found their key.
  size_t RunBatch();

  size_t batch() const { return batch_; }

 private:
  static constexpr size_t kBatches = 256;

  const size_t batch_;
  engine::Engine engine_;
  engine::ExecContext ctx_;
  resp::Decoder decoder_;
  std::vector<std::vector<std::string>> slots_;
  std::string out_;
  std::vector<std::string> wires_;  // one multibulk stream per batch
  size_t next_ = 0;
};

}  // namespace memdb::bench

#endif  // MEMDB_BENCH_SUPPORT_COMMAND_PATH_H_
