/**
 * @file
 * Minimal JSON document model shared by the observability layer.
 *
 * Hand-rolled on purpose: the container ships no third-party JSON
 * dependency, and the telemetry producers (metrics documents, trace writers,
 * bench journal, fault-campaign summary) only need ordered objects,
 * arrays, and exact integer round-tripping for counters.  Object keys
 * keep insertion order so emitted documents are byte-stable across
 * runs -- the property the schema-stability tests pin down.
 */

#ifndef ULECC_CORE_JSON_HH
#define ULECC_CORE_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.hh"

namespace ulecc
{

struct JsonMember;

/** One JSON value (null / bool / int / double / string / array / object). */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    Json();
    Json(std::nullptr_t);
    Json(bool v);
    Json(int v);
    Json(unsigned v);
    Json(int64_t v);
    Json(uint64_t v);
    Json(double v);
    Json(const char *v);
    Json(std::string v);
    Json(const Json &other);
    Json(Json &&other) noexcept;
    Json &operator=(const Json &other);
    Json &operator=(Json &&other) noexcept;
    ~Json();

    /** An empty array / object (distinct from null). */
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Double;
    }
    bool isInt() const { return type_ == Type::Int; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** @name Scalar access (throws Errc::InvalidInput on mismatch) */
    /** @{ */
    bool asBool() const;
    int64_t asInt() const;    ///< Int, or Double with integral value
    double asDouble() const;  ///< Int or Double
    const std::string &asString() const;
    /** @} */

    /** Array/object element count (0 for scalars). */
    size_t size() const;

    /** Array element access (throws Errc::OutOfRange). */
    const Json &at(size_t index) const;

    /** Appends to an array (converts a null value into an array). */
    Json &push(Json v);

    /**
     * Object insert-or-reference (converts a null value into an
     * object; preserves first-insertion key order).
     */
    Json &operator[](const std::string &key);

    /** Object lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<JsonMember> &members() const;

    /** Deep structural equality (Int 3 == Double 3.0). */
    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const { return !(*this == other); }

    /**
     * Serialises the document.  @p indent < 0 renders compact;
     * otherwise pretty-printed with @p indent spaces per level.
     */
    std::string dump(int indent = -1) const;

    /** Parses a JSON document; Errc::InvalidInput with offset on error. */
    static Result<Json> parse(const std::string &text);

  private:
    void writeTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<JsonMember> obj_;
};

/** One key/value entry of a JSON object. */
struct JsonMember
{
    std::string key;
    Json value;
};

/** Escapes @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Writes @p text to @p path byte for byte; false on I/O failure.
 * The one file sink of every document and artifact writer. */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace ulecc

#endif // ULECC_CORE_JSON_HH
