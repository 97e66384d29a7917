#include "resp/resp.h"

#include <charconv>
#include <cstring>

namespace memdb::resp {

Value Value::Simple(std::string s) {
  Value v;
  v.type = Type::kSimpleString;
  v.str = std::move(s);
  return v;
}

Value Value::Error(std::string s) {
  Value v;
  v.type = Type::kError;
  v.str = std::move(s);
  return v;
}

Value Value::Integer(int64_t i) {
  Value v;
  v.type = Type::kInteger;
  v.integer = i;
  return v;
}

Value Value::Bulk(std::string s) {
  Value v;
  v.type = Type::kBulkString;
  v.str = std::move(s);
  return v;
}

Value Value::Null() { return Value(); }

Value Value::Array(std::vector<Value> elems) {
  Value v;
  v.type = Type::kArray;
  v.array = std::move(elems);
  return v;
}

void Value::EncodeTo(std::string* out) const {
  switch (type) {
    case Type::kSimpleString:
      out->push_back('+');
      out->append(str);
      out->append("\r\n");
      break;
    case Type::kError:
      out->push_back('-');
      out->append(str);
      out->append("\r\n");
      break;
    case Type::kInteger:
      out->push_back(':');
      out->append(std::to_string(integer));
      out->append("\r\n");
      break;
    case Type::kBulkString:
      out->push_back('$');
      out->append(std::to_string(str.size()));
      out->append("\r\n");
      out->append(str);
      out->append("\r\n");
      break;
    case Type::kNull:
      out->append("$-1\r\n");
      break;
    case Type::kArray:
      out->push_back('*');
      out->append(std::to_string(array.size()));
      out->append("\r\n");
      for (const Value& e : array) e.EncodeTo(out);
      break;
  }
}

std::string Value::Encode() const {
  std::string out;
  EncodeTo(&out);
  return out;
}

std::string Value::ToString() const {
  switch (type) {
    case Type::kSimpleString:
      return "+" + str;
    case Type::kError:
      return "-" + str;
    case Type::kInteger:
      return std::to_string(integer);
    case Type::kBulkString:
      return "\"" + str + "\"";
    case Type::kNull:
      return "(nil)";
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += ", ";
        out += array[i].ToString();
      }
      return out + "]";
    }
  }
  return "?";
}

bool Value::operator==(const Value& other) const {
  if (type != other.type) return false;
  switch (type) {
    case Type::kSimpleString:
    case Type::kError:
    case Type::kBulkString:
      return str == other.str;
    case Type::kInteger:
      return integer == other.integer;
    case Type::kNull:
      return true;
    case Type::kArray:
      return array == other.array;
  }
  return false;
}

std::string EncodeCommand(const std::vector<std::string>& args) {
  std::string out;
  out.push_back('*');
  out.append(std::to_string(args.size()));
  out.append("\r\n");
  for (const std::string& a : args) {
    out.push_back('$');
    out.append(std::to_string(a.size()));
    out.append("\r\n");
    out.append(a);
    out.append("\r\n");
  }
  return out;
}

void Decoder::Feed(Slice data) {
  Compact();
  buffer_.append(data.data(), data.size());
}

void Decoder::Compact() {
  // Drop the consumed prefix: at no cost when all of it was parsed (the
  // next bytes then reuse the buffer from its start), else once it
  // dominates, so the buffer cannot grow without bound.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

namespace {
// The index of the first "\r\n" at or after `from`, or npos.
size_t FindCrlf(const std::string& buf, size_t from) {
  while (from + 1 < buf.size()) {
    const void* cr =
        std::memchr(buf.data() + from, '\r', buf.size() - 1 - from);
    if (cr == nullptr) break;
    const size_t p =
        static_cast<size_t>(static_cast<const char*>(cr) - buf.data());
    if (buf[p + 1] == '\n') return p;
    from = p + 1;
  }
  return std::string::npos;
}

bool ParseInt(const char* s, size_t n, int64_t* out) {
  if (n == 0) return false;
  auto [ptr, ec] = std::from_chars(s, s + n, *out);
  return ec == std::errc() && ptr == s + n;
}
bool ParseInt(const std::string& s, int64_t* out) {
  return ParseInt(s.data(), s.size(), out);
}

DecodeStatus FromStatus(const Status& s, std::string* error) {
  if (s.ok()) return DecodeStatus::kOk;
  if (s.IsNotFound()) return DecodeStatus::kNeedMore;
  if (error != nullptr) *error = s.message();
  return DecodeStatus::kError;
}

DecodeStatus Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return DecodeStatus::kError;
}
}  // namespace

bool Decoder::ReadLine(size_t* pos, std::string* line) {
  const size_t eol = FindCrlf(buffer_, *pos);
  if (eol == std::string::npos) return false;
  line->assign(buffer_, *pos, eol - *pos);
  *pos = eol + 2;
  return true;
}

Status Decoder::ParseAt(size_t* pos, Value* value, size_t depth) {
  if (depth > limits_.max_nesting) {
    return Status::Corruption("multibulk nesting exceeds limit");
  }
  if (*pos >= buffer_.size()) return Status::NotFound("need more data");
  const char marker = buffer_[*pos];
  size_t p = *pos + 1;
  std::string line;
  switch (marker) {
    case '+':
      if (!ReadLine(&p, &line)) return Status::NotFound("need more data");
      *value = Value::Simple(std::move(line));
      *pos = p;
      return Status::OK();
    case '-':
      if (!ReadLine(&p, &line)) return Status::NotFound("need more data");
      *value = Value::Error(std::move(line));
      *pos = p;
      return Status::OK();
    case ':': {
      if (!ReadLine(&p, &line)) return Status::NotFound("need more data");
      int64_t n;
      if (!ParseInt(line, &n))
        return Status::Corruption("bad integer: " + line);
      *value = Value::Integer(n);
      *pos = p;
      return Status::OK();
    }
    case '$': {
      if (!ReadLine(&p, &line)) return Status::NotFound("need more data");
      int64_t len;
      if (!ParseInt(line, &len) || len < -1)
        return Status::Corruption("bad bulk length: " + line);
      if (len > 0 && static_cast<uint64_t>(len) > limits_.max_bulk_bytes)
        return Status::Corruption("invalid bulk length: " + line +
                                  " exceeds proto-max-bulk-len");
      if (len == -1) {
        *value = Value::Null();
        *pos = p;
        return Status::OK();
      }
      const size_t need = static_cast<size_t>(len) + 2;
      if (buffer_.size() - p < need) return Status::NotFound("need more data");
      if (buffer_[p + static_cast<size_t>(len)] != '\r' ||
          buffer_[p + static_cast<size_t>(len) + 1] != '\n') {
        return Status::Corruption("bulk string missing CRLF terminator");
      }
      *value = Value::Bulk(buffer_.substr(p, static_cast<size_t>(len)));
      *pos = p + need;
      return Status::OK();
    }
    case '*': {
      if (!ReadLine(&p, &line)) return Status::NotFound("need more data");
      int64_t n;
      if (!ParseInt(line, &n) || n < -1)
        return Status::Corruption("bad array length: " + line);
      if (n > 0 && static_cast<uint64_t>(n) > limits_.max_array_elems)
        return Status::Corruption("invalid multibulk length: " + line);
      if (n == -1) {
        *value = Value::Null();
        *pos = p;
        return Status::OK();
      }
      std::vector<Value> elems;
      elems.reserve(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        Value elem;
        MEMDB_RETURN_IF_ERROR(ParseAt(&p, &elem, depth + 1));
        elems.push_back(std::move(elem));
      }
      *value = Value::Array(std::move(elems));
      *pos = p;
      return Status::OK();
    }
    default:
      return Status::Corruption(std::string("unexpected marker byte '") +
                                marker + "'");
  }
}

Status Decoder::TryParse(Value* value) {
  size_t pos = consumed_;
  Status s = ParseAt(&pos, value);
  if (s.ok()) consumed_ = pos;
  return s;
}

DecodeStatus Decoder::Decode(Value* value, std::string* error) {
  return FromStatus(TryParse(value), error);
}

DecodeStatus Decoder::DecodeCommand(std::vector<std::string>* argv,
                                    std::string* error) {
  for (;;) {
    if (consumed_ >= buffer_.size()) return DecodeStatus::kNeedMore;
    if (buffer_[consumed_] == '*') {
      const size_t eol = FindCrlf(buffer_, consumed_ + 1);
      if (eol == std::string::npos) return DecodeStatus::kNeedMore;
      const char* line = buffer_.data() + consumed_ + 1;
      const size_t line_len = eol - consumed_ - 1;
      int64_t n;
      if (!ParseInt(line, line_len, &n)) {
        return Fail(error, "bad array length: " + std::string(line, line_len));
      }
      if (n <= 0) {
        // No arguments: consumed, and skipped like an empty inline line.
        consumed_ = eol + 2;
        continue;
      }
      if (static_cast<uint64_t>(n) > limits_.max_array_elems) {
        return Fail(error,
                    "invalid multibulk length: " + std::string(line, line_len));
      }
      return DecodeArgs(eol + 2, static_cast<size_t>(n), argv, error);
    }
    // Inline command: everything up to the next newline, split on
    // whitespace. Lines may end with bare \n (hand-typed probes) or \r\n.
    const size_t nl = buffer_.find('\n', consumed_);
    if (nl == std::string::npos) {
      if (buffer_.size() - consumed_ > limits_.max_inline_bytes) {
        return Fail(error, "too big inline request");
      }
      return DecodeStatus::kNeedMore;
    }
    size_t end = nl;
    if (end > consumed_ && buffer_[end - 1] == '\r') --end;
    if (end - consumed_ > limits_.max_inline_bytes) {
      consumed_ = nl + 1;
      return Fail(error, "too big inline request");
    }
    size_t argc = 0;
    size_t p = consumed_;
    while (p < end) {
      while (p < end && (buffer_[p] == ' ' || buffer_[p] == '\t')) ++p;
      const size_t tok = p;
      while (p < end && buffer_[p] != ' ' && buffer_[p] != '\t') ++p;
      if (p > tok) {
        if (argc == argv->size()) argv->emplace_back();
        (*argv)[argc++].assign(buffer_, tok, p - tok);
      }
    }
    consumed_ = nl + 1;
    if (argc > 0) {
      argv->resize(argc);
      return DecodeStatus::kOk;
    }
    // Empty line: consumed silently; keep scanning for a real command.
  }
}

DecodeStatus Decoder::DecodeArgs(size_t pos, size_t n,
                                 std::vector<std::string>* argv,
                                 std::string* error) {
  // The elements sit one level below the frame, as in ParseAt.
  if (limits_.max_nesting < 1) {
    return Fail(error, "multibulk nesting exceeds limit");
  }
  argv->reserve(n);  // exact, so a kept slot has room for no more
  argv->resize(n);
  bool all_bulk = true;
  for (size_t i = 0; i < n; ++i) {
    if (pos >= buffer_.size()) return DecodeStatus::kNeedMore;
    if (buffer_[pos] == '$') {
      const size_t eol = FindCrlf(buffer_, pos + 1);
      if (eol == std::string::npos) return DecodeStatus::kNeedMore;
      const char* line = buffer_.data() + pos + 1;
      const size_t line_len = eol - pos - 1;
      int64_t len;
      if (!ParseInt(line, line_len, &len) || len < -1) {
        return Fail(error, "bad bulk length: " + std::string(line, line_len));
      }
      if (len > 0 && static_cast<uint64_t>(len) > limits_.max_bulk_bytes) {
        return Fail(error, "invalid bulk length: " +
                               std::string(line, line_len) +
                               " exceeds proto-max-bulk-len");
      }
      if (len >= 0) {
        const size_t body = eol + 2;
        const size_t size = static_cast<size_t>(len);
        if (buffer_.size() - body < size + 2) return DecodeStatus::kNeedMore;
        if (buffer_[body + size] != '\r' || buffer_[body + size + 1] != '\n') {
          return Fail(error, "bulk string missing CRLF terminator");
        }
        (*argv)[i].assign(buffer_, body, size);
        pos = body + size + 2;
        continue;
      }
      // A null bulk ($-1) is no argument: parsed below like any other
      // element that is not a bulk string.
    }
    // Such a frame is no command. It fails once it is complete, and each
    // element gives the error or the wait the value parser gives for it.
    Value element;
    const Status s = ParseAt(&pos, &element, 1);
    if (!s.ok()) return FromStatus(s, error);
    all_bulk = false;
  }
  consumed_ = pos;
  if (!all_bulk) return Fail(error, "command elements must be bulk strings");
  return DecodeStatus::kOk;
}

}  // namespace memdb::resp
