#include "ssl/driver.hpp"

#include "ssl/async/reactor.hpp"
#include "ssl/async/transport.hpp"

namespace phissl::ssl {

DriverReport run_handshakes(const rsa::Engine& server_engine,
                            const DriverConfig& cfg) {
  if (cfg.frontend == Frontend::kSocket) {
    return async::run_socket_handshakes(server_engine, cfg);
  }
  return async::run_event_handshakes(server_engine, cfg);
}

}  // namespace phissl::ssl
