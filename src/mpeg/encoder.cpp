#include "mpeg/encoder.hpp"

#include <cassert>
#include <cmath>

namespace nistream::mpeg {
namespace {

void put_start_code(std::vector<std::uint8_t>& out, std::uint8_t code) {
  out.push_back(0x00);
  out.push_back(0x00);
  out.push_back(0x01);
  out.push_back(code);
}

/// Sequence header: width/height (12 bits each), aspect, frame-rate code,
/// bit-rate, VBV. We emit syntactically plausible fixed values.
void put_sequence_header(std::vector<std::uint8_t>& out, int w, int h) {
  put_start_code(out, kSequenceHeaderCode);
  out.push_back(static_cast<std::uint8_t>(w >> 4));
  out.push_back(static_cast<std::uint8_t>(((w & 0xF) << 4) | (h >> 8)));
  out.push_back(static_cast<std::uint8_t>(h & 0xFF));
  out.push_back(0x15);  // aspect 1:1, frame rate code 5 (30 fps)
  out.push_back(0xFF);  // bit-rate fields (don't-care for segmentation)
  out.push_back(0xFF);
  out.push_back(0xE0);
  out.push_back(0xA0);
}

void put_gop_header(std::vector<std::uint8_t>& out) {
  put_start_code(out, kGopHeaderCode);
  out.push_back(0x00);  // time code (unused by the segmenter)
  out.push_back(0x08);
  out.push_back(0x00);
  out.push_back(0x40);
}

/// Picture header: temporal_reference (10 bits) then picture_coding_type
/// (3 bits), then vbv_delay — the layout the segmenter decodes.
void put_picture_header(std::vector<std::uint8_t>& out, std::uint32_t temporal_ref,
                        FrameType type) {
  put_start_code(out, kPictureStartCode);
  const auto code = static_cast<std::uint32_t>(type);  // 1=I, 2=P, 3=B
  // Bits: tttttttt tt ccc vvvvvvvvvvvvvvvv 0...  (t=temporal ref, c=type)
  out.push_back(static_cast<std::uint8_t>(temporal_ref >> 2));
  out.push_back(static_cast<std::uint8_t>(((temporal_ref & 0x3) << 6) |
                                          (code << 3) | 0x07));
  out.push_back(0xFF);  // vbv_delay
  out.push_back(0xF8);
}

/// Payload filler that can never emulate a start code: no 0x00 bytes.
void put_payload(std::vector<std::uint8_t>& out, std::uint32_t n,
                 sim::Rng& rng) {
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>(1 + rng.below(255)));
  }
}

}  // namespace

MpegFile SyntheticEncoder::generate(int n_frames) const {
  assert(n_frames >= 0);
  MpegFile file;
  file.fps = params_.fps;
  file.frames.reserve(static_cast<std::size_t>(n_frames));
  sim::Rng rng{params_.seed};

  // Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
  const double s = params_.size_sigma;
  const auto draw_size = [&](double mean) {
    const double mu = std::log(mean) - s * s / 2.0;
    const double v = rng.lognormal(mu, s);
    return std::max(params_.min_frame_bytes, static_cast<std::uint32_t>(v));
  };

  file.bitstream.reserve(static_cast<std::size_t>(
      static_cast<double>(n_frames) * params_.mean_p_bytes));
  put_sequence_header(file.bitstream, kSifWidth, kSifHeight);

  for (int i = 0; i < n_frames; ++i) {
    const int in_gop = i % params_.gop.n;
    if (in_gop == 0) put_gop_header(file.bitstream);
    const FrameType type = params_.gop.type_of(in_gop);
    const double mean = type == FrameType::kI   ? params_.mean_i_bytes
                        : type == FrameType::kP ? params_.mean_p_bytes
                                                : params_.mean_b_bytes;
    const std::uint32_t coded = draw_size(mean);

    const std::size_t frame_start = file.bitstream.size();
    put_picture_header(file.bitstream,
                       static_cast<std::uint32_t>(in_gop) & 0x3FF, type);
    const std::uint32_t header_bytes =
        static_cast<std::uint32_t>(file.bitstream.size() - frame_start);
    put_payload(file.bitstream, coded > header_bytes ? coded - header_bytes : 0,
                rng);

    file.frames.push_back(FrameInfo{
        .type = type,
        .bytes = static_cast<std::uint32_t>(file.bitstream.size() - frame_start),
        .display_index = static_cast<std::uint32_t>(i),
        .pts_seconds = static_cast<double>(i) / params_.fps,
    });
  }
  put_start_code(file.bitstream, kSequenceEndCode);
  return file;
}

}  // namespace nistream::mpeg
