#include "net/session.hpp"

#include "common/expect.hpp"
#include "nn/model.hpp"
#include "nn/quantize.hpp"

namespace iob::net {

SessionConfig split_session(SessionConfig cfg, std::size_t split_at) {
  IOB_EXPECTS(cfg.net != nullptr, "split session needs its model");
  const nn::Model& net = *cfg.net;
  IOB_EXPECTS(split_at <= net.layer_count(), "session split point out of range");
  std::uint64_t suffix_macs = 0;
  std::uint64_t suffix_params = 0;
  for (std::size_t i = split_at; i < net.layer_count(); ++i) {
    suffix_macs += net.profiles()[i].macs;
    suffix_params += net.profiles()[i].params;
  }
  cfg.split_layers = split_at;
  cfg.macs_per_inference = suffix_macs;
  cfg.bytes_per_inference = static_cast<std::uint64_t>(nn::activation_wire_bytes(
      nn::shape_elems(net.layer_input_shape(split_at)), cfg.precision));
  if (cfg.weight_bytes != 0) cfg.weight_bytes = suffix_params;
  return cfg;
}

}  // namespace iob::net
