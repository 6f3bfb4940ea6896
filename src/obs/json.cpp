#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fades::obs {

Json& Json::set(const std::string& key, Json value) {
  type_ = Type::Object;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Json::get(const std::string& key, std::string& out) const {
  const Json* f = find(key);
  if (f == nullptr || !f->isString()) return false;
  out = f->asString();
  return true;
}

bool Json::get(const std::string& key, double& out) const {
  const Json* f = find(key);
  if (f == nullptr || !f->isNumber()) return false;
  out = f->asNumber();
  return true;
}

bool Json::get(const std::string& key, std::int64_t& out) const {
  const Json* f = find(key);
  if (f == nullptr || !f->isNumber()) return false;
  out = f->asInt();
  return true;
}

bool Json::get(const std::string& key, std::uint64_t& out) const {
  const Json* f = find(key);
  if (f == nullptr || !f->isNumber()) return false;
  out = static_cast<std::uint64_t>(f->asInt());
  return true;
}

std::string Json::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

std::string numberToString(double d, bool isInt, bool isUnsigned,
                           std::int64_t i) {
  char buf[40];
  if (isInt) {
    if (isUnsigned) {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(i));
    } else {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(i));
    }
    return buf;
  }
  if (!std::isfinite(d)) return "null";  // JSON has no Inf/NaN
  std::snprintf(buf, sizeof buf, "%.17g", d);
  // Trim the %.17g representation when a shorter one round-trips.
  char shorter[40];
  std::snprintf(shorter, sizeof shorter, "%.15g", d);
  if (std::strtod(shorter, nullptr) == d) return shorter;
  return buf;
}

}  // namespace

void Json::dumpTo(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string closePad(static_cast<std::size_t>(indent) * depth, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: out += numberToString(num_, isInt_, isUnsigned_, int_); break;
    case Type::String:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Type::Array: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += pad;
        items_[i].dumpTo(out, indent, depth + 1);
        if (i + 1 < items_.size()) out += ',';
        out += nl;
      }
      out += closePad;
      out += ']';
      break;
    }
    case Type::Object: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += pad;
        out += '"';
        out += escape(members_[i].first);
        out += '"';
        out += colon;
        members_[i].second.dumpTo(out, indent, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += nl;
      }
      out += closePad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser (recursive descent)
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error{};

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parseValue(Json& out) {
    skipWs();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parseObject(out);
    if (c == '[') return parseArray(out);
    if (c == '"') {
      std::string s;
      if (!parseString(s)) return false;
      out = Json(std::move(s));
      return true;
    }
    if (c == 't' || c == 'f') return parseKeyword(out);
    if (c == 'n') return parseKeyword(out);
    return parseNumber(out);
  }

  bool parseKeyword(Json& out) {
    auto match = [&](std::string_view kw) {
      if (text.substr(pos, kw.size()) == kw) {
        pos += kw.size();
        return true;
      }
      return false;
    };
    if (match("true")) {
      out = Json(true);
      return true;
    }
    if (match("false")) {
      out = Json(false);
      return true;
    }
    if (match("null")) {
      out = Json(nullptr);
      return true;
    }
    return fail("invalid keyword");
  }

  bool parseNumber(Json& out) {
    const std::size_t start = pos;
    bool isInt = true;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    if (pos < text.size() && text[pos] == '.') {
      isInt = false;
      ++pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      isInt = false;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos == start) return fail("invalid number");
    const std::string token(text.substr(start, pos - start));
    if (isInt) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out = Json(static_cast<std::int64_t>(v));
        return true;
      }
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("invalid number");
    out = Json(d);
    return true;
  }

  bool parseString(std::string& out) {
    if (!consume('"')) return false;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("dangling escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("invalid \\u escape");
            }
            // UTF-8 encode (BMP only; surrogate pairs are not produced by
            // our writers).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("invalid escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control char");
      out += c;
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parseArray(Json& out) {
    if (!consume('[')) return false;
    out = Json::array();
    skipWs();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      Json v;
      if (!parseValue(v)) return false;
      out.push(std::move(v));
      skipWs();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parseObject(Json& out) {
    if (!consume('{')) return false;
    out = Json::object();
    skipWs();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skipWs();
      std::string key;
      if (!parseString(key)) return false;
      if (!consume(':')) return false;
      Json v;
      if (!parseValue(v)) return false;
      out.set(key, std::move(v));
      skipWs();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume('}');
    }
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  Parser p{text};
  Json out;
  if (!p.parseValue(out)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skipWs();
  if (p.pos != text.size()) {
    if (error != nullptr) *error = "trailing garbage at offset " + std::to_string(p.pos);
    return std::nullopt;
  }
  return out;
}

}  // namespace fades::obs
