// Structured, non-throwing error layer for fallible boundaries.
//
// FDBIST_REQUIRE / FDBIST_ASSERT (common/check.hpp) stay the right tool
// for API misuse and internal invariants — those are bugs and should
// throw. Everything that can fail for *environmental* reasons — file
// I/O, a corrupt or foreign checkpoint, user-typed input, a campaign
// cut short by cancellation or a deadline — instead returns
// Expected<T>: either a value or an Error carrying a machine-checkable
// ErrorCode plus a human-readable message. Callers branch on the code
// (the CLI maps codes to exit statuses, the campaign layer maps
// Cancelled/DeadlineExceeded to graceful partial results) instead of
// string-matching what() texts.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "common/check.hpp"

namespace fdbist {

/// Taxonomy of recoverable failures. Callers and tests branch on the
/// enumerators and print their names; no file format stores a code's
/// value, so an unused code can be removed without touching any format.
enum class ErrorCode {
  Io,                  ///< filesystem open/read/write/rename failed
  CorruptCheckpoint,   ///< bad magic, version, size, or checksum
  FingerprintMismatch, ///< checkpoint from a different design/stimulus/config
  Cancelled,           ///< cancellation token fired
  DeadlineExceeded,    ///< deadline elapsed before completion
  InvalidArgument,     ///< malformed user input (CLI args, env vars)
};

inline const char* error_code_name(ErrorCode c) {
  switch (c) {
  case ErrorCode::Io: return "io";
  case ErrorCode::CorruptCheckpoint: return "corrupt-checkpoint";
  case ErrorCode::FingerprintMismatch: return "fingerprint-mismatch";
  case ErrorCode::Cancelled: return "cancelled";
  case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
  case ErrorCode::InvalidArgument: return "invalid-argument";
  }
  return "unknown";
}

struct Error {
  ErrorCode code = ErrorCode::Io;
  std::string message;

  /// "corrupt-checkpoint: truncated file (got 12 bytes, need 56)"
  std::string to_string() const {
    std::string s = error_code_name(code);
    if (!message.empty()) {
      s += ": ";
      s += message;
    }
    return s;
  }
};

/// Either a T or an Error. A deliberately small subset of
/// std::expected (C++23, not yet available on the target toolchain):
/// construct from a value or an Error, test with has_value()/operator
/// bool, then read value() or error(). Accessors enforce the active
/// alternative via FDBIST_ASSERT, so misuse surfaces as an invariant
/// failure instead of undefined behavior.
template <typename T>
class Expected {
public:
  Expected(T value) : state_(std::move(value)) {}
  Expected(Error error) : state_(std::move(error)) {}

  bool has_value() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return has_value(); }

  T& value() {
    FDBIST_ASSERT(has_value(), "Expected accessed without a value");
    return std::get<T>(state_);
  }
  const T& value() const {
    FDBIST_ASSERT(has_value(), "Expected accessed without a value");
    return std::get<T>(state_);
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  const Error& error() const {
    FDBIST_ASSERT(!has_value(), "Expected holds a value, not an error");
    return std::get<Error>(state_);
  }

private:
  std::variant<T, Error> state_;
};

/// Expected<void>: success carries no payload.
template <>
class Expected<void> {
public:
  Expected() = default;
  Expected(Error error) : error_(std::move(error)), has_value_(false) {}

  bool has_value() const { return has_value_; }
  explicit operator bool() const { return has_value_; }

  const Error& error() const {
    FDBIST_ASSERT(!has_value_, "Expected<void> holds success, not an error");
    return error_;
  }

private:
  Error error_;
  bool has_value_ = true;
};

} // namespace fdbist
