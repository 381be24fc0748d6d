// Blocking JSON-lines client of gqc_serve's protocol over a loopback TCP
// connection: one request line out, one response line back.
#ifndef GQC_PERFBENCH_SOCKET_CLIENT_H_
#define GQC_PERFBENCH_SOCKET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects to 127.0.0.1:`port`; false on failure.
  bool Connect(uint16_t port);
  /// Sends `line` plus a newline and reads one response line into
  /// `*response` (newline stripped); false when the connection failed.
  bool Exchange(std::string_view line, std::string* response);
  void Close();

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace perfbench

#endif  // GQC_PERFBENCH_SOCKET_CLIENT_H_
