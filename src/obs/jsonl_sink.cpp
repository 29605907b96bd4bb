#include "dds/obs/jsonl_sink.hpp"

#include "dds/common/error.hpp"

namespace dds::obs {

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path,
                                             std::ios::out |
                                                 std::ios::trunc |
                                                 std::ios::binary)),
      out_(owned_.get()) {
  if (!owned_->is_open()) {
    throw IoError("cannot open trace file: " + path);
  }
}

void JsonlTraceSink::emit(const TraceEvent& event) {
  appendTraceEventJson(buffer_, event);
  buffer_ += '\n';
  out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
  ++count_;
}

bool JsonlTraceSink::flush() {
  out_->flush();
  return out_->good();
}

}  // namespace dds::obs
