// Fuzzes the isolation-mode result payload through the supervisor's one
// decoder, wire::decodeOutcome (readOutcome, then nothing may follow): on
// arbitrary bytes it must yield an outcome or a typed IpcError, never
// crash, and an outcome that decodes must be a re-encode fixed point. The
// frame around it is read by FrameReassembler, which fuzz_wire_message
// drives with arbitrary chunking. Seed corpus: fuzz/corpus/ipc_frame
// (written by gen_chaos_corpus).

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "exec/wire_codec.hpp"

namespace {

std::string encodeOutcome(const occm::exec::RunOutcome& outcome) {
  std::string out;
  occm::exec::wire::putOutcome(out, outcome);
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace occm::exec;
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const auto outcome = wire::decodeOutcome(bytes);
  if (outcome.hasValue()) {
    const std::string reencoded = encodeOutcome(outcome.value());
    const auto again = wire::decodeOutcome(reencoded);
    if (!again.hasValue() || encodeOutcome(again.value()) != reencoded) {
      std::abort();
    }
  } else {
    (void)outcome.error().message();
  }
  return 0;
}
