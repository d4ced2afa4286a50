// Fuzzes the isolation-mode result message: decodeChildMessage on
// arbitrary bytes must yield a message or a typed IpcError, never crash,
// and a message that decodes must be a re-encode fixed point. The frame
// around it is read by FrameReassembler, which fuzz_wire_message drives
// with arbitrary chunking.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "exec/ipc.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace occm::exec;
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  const auto message = decodeChildMessage(bytes);
  if (message.hasValue()) {
    const std::string reencoded = encodeChildMessage(message.value());
    const auto again = decodeChildMessage(reencoded);
    if (!again.hasValue() ||
        encodeChildMessage(again.value()) != reencoded) {
      std::abort();
    }
  } else {
    (void)message.error().message();
  }
  return 0;
}
