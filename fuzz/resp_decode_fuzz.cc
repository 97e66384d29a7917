// libFuzzer harness for the RESP streaming decoder — the first parser that
// touches untrusted client bytes (src/net feeds socket reads straight into
// Decoder::DecodeCommand). The harness drives all three entry points
// (value decode, command decode, TryParse) through arbitrary chunk splits
// and checks the invariants a socket reader depends on:
//
//   - no crash / no sanitizer report on any byte sequence,
//   - a decode step never consumes bytes it did not report,
//   - kOk frames survive an encode -> decode round trip bit-exactly (a
//     value through Encode, a command through EncodeCommand),
//   - a command is never empty: what names none is skipped,
//   - the decoder makes progress: a bounded input terminates in a bounded
//     number of steps (no infinite kOk loop on an empty buffer).
//
// Build modes: linked against driver_main.cc it replays a corpus under any
// compiler/sanitizer (the ctest regression); with clang's
// -fsanitize=fuzzer it becomes a real coverage-guided fuzzer.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "resp/resp.h"

namespace {

using memdb::Slice;
using memdb::resp::DecodeLimits;
using memdb::resp::Decoder;
using memdb::resp::DecodeStatus;
using memdb::resp::Value;

// Small limits so declared-size rejection paths run on tiny inputs and a
// hostile declaration cannot make the harness itself allocate gigabytes.
DecodeLimits FuzzLimits() {
  DecodeLimits limits;
  limits.max_bulk_bytes = 1u << 16;
  limits.max_array_elems = 1u << 10;
  limits.max_inline_bytes = 1u << 10;
  return limits;
}

void Abort(const char* what) {
  __builtin_trap();
  (void)what;
}

// One complete value decoded from `data` must re-decode from its own
// encoding to an equal value (the encoder and decoder agree on the wire).
void CheckRoundTrip(const Value& v) {
  Decoder redecode;
  redecode.set_limits(FuzzLimits());
  redecode.Feed(Slice(v.Encode()));
  Value again;
  std::string err;
  if (redecode.Decode(&again, &err) != DecodeStatus::kOk) {
    Abort("re-decode of an encoded value failed");
  }
  if (!(again == v)) Abort("encode/decode round trip changed the value");
}

// A decoded command re-encodes as a multibulk frame that decodes to the
// same arguments.
void CheckCommandRoundTrip(const std::vector<std::string>& argv) {
  Decoder redecode;
  redecode.set_limits(FuzzLimits());
  redecode.Feed(Slice(memdb::resp::EncodeCommand(argv)));
  std::vector<std::string> again;
  std::string err;
  if (redecode.DecodeCommand(&again, &err) != DecodeStatus::kOk) {
    Abort("re-decode of an encoded command failed");
  }
  if (again != argv) Abort("command encode/decode round trip changed it");
}

void DriveValues(const uint8_t* data, size_t size, size_t chunk) {
  Decoder dec;
  dec.set_limits(FuzzLimits());
  size_t fed = 0;
  // Progress bound: every kOk consumes >= 1 byte (the smallest frame is
  // ":0\r\n" — 4, but be generous), every kNeedMore waits for a feed, and
  // kError terminates. size + steps slack bounds the loop.
  size_t budget = 2 * size + 16;
  while (budget-- > 0) {
    Value v;
    std::string err;
    const size_t before = dec.buffered();
    const DecodeStatus st = dec.Decode(&v, &err);
    if (st == DecodeStatus::kOk) {
      if (dec.buffered() > before) Abort("kOk grew the buffer");
      CheckRoundTrip(v);
      continue;
    }
    if (st == DecodeStatus::kError) return;
    if (fed >= size) return;  // kNeedMore with nothing left to feed
    const size_t n = chunk == 0 ? size - fed
                                : (chunk < size - fed ? chunk : size - fed);
    dec.Feed(Slice(reinterpret_cast<const char*>(data) + fed, n));
    fed += n;
  }
  Abort("decoder failed to terminate within the step budget");
}

void DriveCommands(const uint8_t* data, size_t size, size_t chunk) {
  Decoder dec;
  dec.set_limits(FuzzLimits());
  size_t fed = 0;
  size_t budget = 2 * size + 16;
  while (budget-- > 0) {
    std::vector<std::string> argv;
    std::string err;
    const DecodeStatus st = dec.DecodeCommand(&argv, &err);
    if (st == DecodeStatus::kOk) {
      if (argv.empty()) Abort("kOk command with empty argv");
      CheckCommandRoundTrip(argv);
      continue;
    }
    if (st == DecodeStatus::kError) return;
    if (fed >= size) return;
    const size_t n = chunk == 0 ? size - fed
                                : (chunk < size - fed ? chunk : size - fed);
    dec.Feed(Slice(reinterpret_cast<const char*>(data) + fed, n));
    fed += n;
  }
  Abort("command decoder failed to terminate within the step budget");
}

void DriveTryParse(const uint8_t* data, size_t size) {
  Decoder dec;
  dec.set_limits(FuzzLimits());
  dec.Feed(Slice(reinterpret_cast<const char*>(data), size));
  size_t budget = 2 * size + 16;
  while (budget-- > 0) {
    Value v;
    const memdb::Status st = dec.TryParse(&v);
    if (!st.ok()) return;  // NotFound (starved) or Corruption both end it
    CheckRoundTrip(v);
  }
  Abort("TryParse failed to terminate within the step budget");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  // First byte picks the chunking so coverage-guided mutation can explore
  // resume-from-partial-frame paths; the rest is the protocol stream.
  const size_t chunk = data[0] % 8;  // 0 = one shot, else 1..7 byte chunks
  data++;
  size--;
  DriveValues(data, size, chunk);
  DriveCommands(data, size, chunk);
  DriveTryParse(data, size);
  return 0;
}
