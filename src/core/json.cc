/**
 * @file
 * Json implementation: writer and recursive-descent parser.
 */

#include "core/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace ulecc
{

Json::Json() = default;
Json::Json(std::nullptr_t) {}
Json::Json(bool v) : type_(Type::Bool), bool_(v) {}
Json::Json(int v) : type_(Type::Int), int_(v) {}
Json::Json(unsigned v) : type_(Type::Int), int_(v) {}
Json::Json(int64_t v) : type_(Type::Int), int_(v) {}

Json::Json(uint64_t v)
{
    // Counters beyond int64 range (the 1<<62 stall storms) degrade to
    // double rather than wrapping negative.
    if (v <= static_cast<uint64_t>(INT64_MAX)) {
        type_ = Type::Int;
        int_ = static_cast<int64_t>(v);
    } else {
        type_ = Type::Double;
        dbl_ = static_cast<double>(v);
    }
}

Json::Json(double v) : type_(Type::Double), dbl_(v) {}
Json::Json(const char *v) : type_(Type::String), str_(v) {}
Json::Json(std::string v) : type_(Type::String), str_(std::move(v)) {}
Json::Json(const Json &other) = default;
Json::Json(Json &&other) noexcept = default;
Json &Json::operator=(const Json &other) = default;
Json &Json::operator=(Json &&other) noexcept = default;
Json::~Json() = default;

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        throw UleccError(Errc::InvalidInput, "json: not a bool");
    return bool_;
}

int64_t
Json::asInt() const
{
    if (type_ == Type::Int)
        return int_;
    if (type_ == Type::Double && dbl_ == std::floor(dbl_)
        && std::abs(dbl_) < 9.2e18) {
        return static_cast<int64_t>(dbl_);
    }
    throw UleccError(Errc::InvalidInput, "json: not an integer");
}

double
Json::asDouble() const
{
    if (type_ == Type::Int)
        return static_cast<double>(int_);
    if (type_ == Type::Double)
        return dbl_;
    throw UleccError(Errc::InvalidInput, "json: not a number");
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        throw UleccError(Errc::InvalidInput, "json: not a string");
    return str_;
}

size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

const Json &
Json::at(size_t index) const
{
    if (type_ != Type::Array || index >= arr_.size())
        throw UleccError(Errc::OutOfRange, "json: array index "
                         + std::to_string(index) + " out of range");
    return arr_[index];
}

Json &
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        throw UleccError(Errc::InvalidInput, "json: push on non-array");
    arr_.push_back(std::move(v));
    return arr_.back();
}

Json &
Json::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        throw UleccError(Errc::InvalidInput, "json: key access on "
                         "non-object");
    for (JsonMember &m : obj_) {
        if (m.key == key)
            return m.value;
    }
    obj_.push_back(JsonMember{key, Json()});
    return obj_.back().value;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const JsonMember &m : obj_) {
        if (m.key == key)
            return &m.value;
    }
    return nullptr;
}

const std::vector<JsonMember> &
Json::members() const
{
    static const std::vector<JsonMember> kEmpty;
    return type_ == Type::Object ? obj_ : kEmpty;
}

bool
Json::operator==(const Json &other) const
{
    if (isNumber() && other.isNumber())
        return asDouble() == other.asDouble();
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return bool_ == other.bool_;
      case Type::String: return str_ == other.str_;
      case Type::Array: return arr_ == other.arr_;
      case Type::Object: {
        if (obj_.size() != other.obj_.size())
            return false;
        for (size_t i = 0; i < obj_.size(); ++i) {
            if (obj_[i].key != other.obj_[i].key
                || !(obj_[i].value == other.obj_[i].value)) {
                return false;
            }
        }
        return true;
      }
      default: return true; // numbers handled above
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
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
                snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

namespace
{

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/Inf
    char buf[40];
    // Shortest representation that round-trips.
    snprintf(buf, sizeof buf, "%.15g", v);
    if (std::strtod(buf, nullptr) != v)
        snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Json::writeTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent >= 0) {
            out += '\n';
            out.append(static_cast<size_t>(indent) * d, ' ');
        }
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int: {
        char buf[24];
        snprintf(buf, sizeof buf, "%lld",
                 static_cast<long long>(int_));
        out += buf;
        break;
      }
      case Type::Double:
        out += formatDouble(dbl_);
        break;
      case Type::String:
        out += '"';
        out += jsonEscape(str_);
        out += '"';
        break;
      case Type::Array:
        out += '[';
        for (size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr_[i].writeTo(out, indent, depth + 1);
        }
        if (!arr_.empty())
            newline(depth);
        out += ']';
        break;
      case Type::Object:
        out += '{';
        for (size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += '"';
            out += jsonEscape(obj_[i].key);
            out += indent >= 0 ? "\": " : "\":";
            obj_[i].value.writeTo(out, indent, depth + 1);
        }
        if (!obj_.empty())
            newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    writeTo(out, indent, 0);
    return out;
}

namespace
{

/** Recursive-descent JSON parser over an in-memory buffer. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Result<Json>
    parseDocument()
    {
        skipWs();
        Json root;
        if (Error *e = parseValue(root))
            return std::move(*e);
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return root;
    }

  private:
    // Returns nullptr on success; on failure err_ holds the error.
    Error *
    parseValue(Json &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return failp("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"': return parseString(out);
          case 't':
            if (!literal("true"))
                return failp("bad literal");
            out = Json(true);
            return nullptr;
          case 'f':
            if (!literal("false"))
                return failp("bad literal");
            out = Json(false);
            return nullptr;
          case 'n':
            if (!literal("null"))
                return failp("bad literal");
            out = Json();
            return nullptr;
          default:
            return parseNumber(out);
        }
    }

    Error *
    parseObject(Json &out)
    {
        ++pos_; // '{'
        out = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return nullptr;
        }
        for (;;) {
            skipWs();
            if (peek() != '"')
                return failp("expected object key");
            Json key;
            if (Error *e = parseString(key))
                return e;
            skipWs();
            if (peek() != ':')
                return failp("expected ':'");
            ++pos_;
            Json value;
            if (Error *e = parseValue(value))
                return e;
            out[key.asString()] = std::move(value);
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return nullptr;
            }
            return failp("expected ',' or '}'");
        }
    }

    Error *
    parseArray(Json &out)
    {
        ++pos_; // '['
        out = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return nullptr;
        }
        for (;;) {
            Json value;
            if (Error *e = parseValue(value))
                return e;
            out.push(std::move(value));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return nullptr;
            }
            return failp("expected ',' or ']'");
        }
    }

    Error *
    parseString(Json &out)
    {
        ++pos_; // '"'
        std::string s;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"') {
                out = Json(std::move(s));
                return nullptr;
            }
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return failp("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return failp("bad \\u escape");
                }
                // UTF-8 encode the basic-multilingual-plane codepoint
                // (surrogate pairs are not produced by our writers).
                if (cp < 0x80) {
                    s += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    s += static_cast<char>(0xC0 | (cp >> 6));
                    s += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    s += static_cast<char>(0xE0 | (cp >> 12));
                    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    s += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                return failp("bad escape character");
            }
        }
        return failp("unterminated string");
    }

    Error *
    parseNumber(Json &out)
    {
        size_t start = pos_;
        bool is_double = false;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+'
                       || c == '-') {
                is_double = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
            return failp("bad number");
        std::string tok = text_.substr(start, pos_ - start);
        if (!is_double) {
            errno = 0;
            char *end = nullptr;
            long long v = std::strtoll(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0') {
                out = Json(static_cast<int64_t>(v));
                return nullptr;
            }
            // Out of int64 range: fall through to double.
        }
        char *end = nullptr;
        double d = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0')
            return failp("bad number");
        out = Json(d);
        return nullptr;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    Error
    fail(const std::string &msg)
    {
        return Error{Errc::InvalidInput,
                     "json parse: " + msg + " at offset "
                     + std::to_string(pos_)};
    }

    Error *
    failp(const std::string &msg)
    {
        err_ = fail(msg);
        return &err_;
    }

    const std::string &text_;
    size_t pos_ = 0;
    Error err_{Errc::InvalidInput, ""};
};

} // namespace

Result<Json>
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << text;
    return static_cast<bool>(out);
}

} // namespace ulecc
