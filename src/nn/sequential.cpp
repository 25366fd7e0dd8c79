#include "nn/sequential.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

namespace evfl::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  EVFL_REQUIRE(layer != nullptr, "Sequential::add null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& l : layers_) copy.layers_.push_back(l->clone());
  return copy;
}

Tensor3 Sequential::forward(const Tensor3& input, bool training) {
  EVFL_REQUIRE(!layers_.empty(), "Sequential has no layers");
  Tensor3 x = input;
  for (auto& l : layers_) x = l->forward(x, training);
  return x;
}

Tensor3 Sequential::backward(const Tensor3& grad_output, bool input_grad) {
  Tensor3 g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    // Every layer above the first feeds its input gradient to the layer
    // below it; only the first layer's is the model's own.
    g = layers_[i]->backward(g, i > 0 || input_grad);
  }
  return g;
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (auto& l : layers_) {
    for (ParamRef& p : l->params()) out.push_back(p);
  }
  return out;
}

void Sequential::zero_grads() {
  for (auto& l : layers_) l->zero_grads();
}

std::size_t Sequential::weight_count() {
  std::size_t n = 0;
  for (ParamRef& p : params()) n += p.value->size();
  return n;
}

std::vector<float> Sequential::get_weights() {
  std::vector<float> flat;
  flat.reserve(weight_count());
  for (ParamRef& p : params()) {
    flat.insert(flat.end(), p.value->data(), p.value->data() + p.value->size());
  }
  return flat;
}

void Sequential::set_weights(const std::vector<float>& flat) {
  std::size_t offset = 0;
  for (ParamRef& p : params()) {
    const std::size_t n = p.value->size();
    EVFL_REQUIRE(offset + n <= flat.size(),
                 "set_weights: vector too short for model");
    std::copy(flat.begin() + offset, flat.begin() + offset + n,
              p.value->data());
    offset += n;
  }
  EVFL_REQUIRE(offset == flat.size(),
               "set_weights: vector larger than model (" +
                   std::to_string(flat.size()) + " vs " +
                   std::to_string(offset) + ")");
}

std::vector<float> Sequential::get_grads() {
  std::vector<float> flat;
  for (ParamRef& p : params()) {
    flat.insert(flat.end(), p.grad->data(), p.grad->data() + p.grad->size());
  }
  return flat;
}

namespace {
constexpr std::uint32_t kWeightsMagic = 0x4C57'5645;  // "EVWL"

std::uint32_t weights_checksum(const std::vector<float>& w) {
  // FNV-1a over the raw bytes: cheap, adequate for corruption detection.
  std::uint32_t h = 2166136261u;
  const auto* p = reinterpret_cast<const unsigned char*>(w.data());
  for (std::size_t i = 0; i < w.size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 16777619u;
  }
  return h;
}
}  // namespace

void Sequential::save_weights(const std::string& path) {
  const std::vector<float> w = get_weights();
  std::ofstream os(path, std::ios::binary);
  EVFL_REQUIRE(static_cast<bool>(os), "cannot open for write: " + path);
  const std::uint64_t count = w.size();
  const std::uint32_t crc = weights_checksum(w);
  os.write(reinterpret_cast<const char*>(&kWeightsMagic), sizeof(kWeightsMagic));
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  os.write(reinterpret_cast<const char*>(w.data()),
           static_cast<std::streamsize>(count * sizeof(float)));
  EVFL_REQUIRE(static_cast<bool>(os), "short write to " + path);
}

void Sequential::load_weights(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EVFL_REQUIRE(static_cast<bool>(is), "cannot open for read: " + path);
  std::uint32_t magic = 0, crc = 0;
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  is.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!is || magic != kWeightsMagic) {
    throw FormatError("weights file: bad header in " + path);
  }
  if (count != weight_count()) {
    throw FormatError("weights file: " + std::to_string(count) +
                      " weights do not fit this model (" +
                      std::to_string(weight_count()) + ")");
  }
  std::vector<float> w(count);
  is.read(reinterpret_cast<char*>(w.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!is) throw FormatError("weights file: truncated payload in " + path);
  if (weights_checksum(w) != crc) {
    throw FormatError("weights file: checksum mismatch in " + path);
  }
  set_weights(w);
}

std::string Sequential::summary() {
  std::ostringstream os;
  os << "Sequential {\n";
  for (auto& l : layers_) {
    os << "  " << l->name();
    std::size_t n = 0;
    for (ParamRef& p : l->params()) n += p.value->size();
    if (n > 0) os << "  [" << n << " params]";
    os << "\n";
  }
  os << "}  total params: " << weight_count();
  return os.str();
}

}  // namespace evfl::nn
