// Synthetic MPEG-1 video elementary-stream generator.
//
// Produces structurally valid MPEG-1 video streams: sequence header, GOP
// headers, picture headers with correct temporal references and
// picture_coding_type fields, and emulation-free pseudo payload. Frame sizes
// follow a lognormal model with I/P/B means in realistic ratios, so the
// scheduler sees the bursty size mix the paper's real MPEG files had.
//
// What is deliberately NOT here: DCT coefficients, motion vectors, or
// anything a video decoder would render — the experiments exercise frame
// *scheduling*, and the substitution (DESIGN.md) only needs sizes, types and
// a parseable syntax.
#pragma once

#include <cstdint>
#include <vector>

#include "mpeg/frame.hpp"
#include "sim/random.hpp"

namespace nistream::mpeg {

/// MPEG-1 start codes used by the writer and the segmenter.
inline constexpr std::uint8_t kStartCodePrefix[3] = {0x00, 0x00, 0x01};
inline constexpr std::uint8_t kSequenceHeaderCode = 0xB3;
inline constexpr std::uint8_t kGopHeaderCode = 0xB8;
inline constexpr std::uint8_t kPictureStartCode = 0x00;
inline constexpr std::uint8_t kSequenceEndCode = 0xB7;

/// Picture size written into the sequence header: SIF.
inline constexpr int kSifWidth = 352;
inline constexpr int kSifHeight = 240;

struct EncoderParams {
  double fps = 30.0;
  GopPattern gop{};
  /// Mean coded sizes per picture type (bytes). Defaults approximate a
  /// ~1.3 Mbit/s SIF MPEG-1 stream: I ~15 KB, P ~7.5 KB, B ~3.5 KB.
  double mean_i_bytes = 15000;
  double mean_p_bytes = 7500;
  double mean_b_bytes = 3500;
  /// Lognormal shape (sigma of the underlying normal).
  double size_sigma = 0.25;
  std::uint32_t min_frame_bytes = 256;
  std::uint64_t seed = 1;
};

class SyntheticEncoder {
 public:
  explicit SyntheticEncoder(EncoderParams params = {}) : params_{params} {}

  /// Generate the frame table + bitstream for `n_frames` pictures.
  [[nodiscard]] MpegFile generate(int n_frames) const;

  [[nodiscard]] const EncoderParams& params() const { return params_; }

 private:
  EncoderParams params_;
};

}  // namespace nistream::mpeg
