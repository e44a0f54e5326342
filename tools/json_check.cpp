/**
 * @file
 * json-check: validate JSON documents against a checked-in schema.
 *
 * Usage:
 *   json_check [--jsonl] schema.json file.json...
 *
 * Implements the subset of JSON Schema the telemetry layer needs --
 * "type" (string or array of strings), "properties", "required",
 * "items", "enum", "minimum", "exclusiveMinimum",
 * "additionalProperties": false -- with no network,
 * no references, no external dependencies.  With --jsonl each
 * non-empty line of every file is validated as its own document (the
 * bench-journal trajectory format).
 *
 * Exit 0 when every document conforms; 1 on any violation or parse
 * error; 2 on usage errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hh"

using namespace ulecc;

namespace
{

bool
typeMatches(const Json &doc, const std::string &type)
{
    if (type == "null")
        return doc.isNull();
    if (type == "boolean")
        return doc.isBool();
    if (type == "integer")
        return doc.isInt();
    if (type == "number")
        return doc.isNumber();
    if (type == "string")
        return doc.isString();
    if (type == "array")
        return doc.isArray();
    if (type == "object")
        return doc.isObject();
    return false;
}

/** Validates @p doc against @p schema; appends violations to @p errs. */
void
validate(const Json &doc, const Json &schema, const std::string &where,
         std::vector<std::string> &errs)
{
    if (!schema.isObject())
        return;

    if (const Json *type = schema.find("type")) {
        bool ok = false;
        if (type->isString()) {
            ok = typeMatches(doc, type->asString());
        } else if (type->isArray()) {
            for (size_t i = 0; i < type->size(); ++i)
                ok = ok || typeMatches(doc, type->at(i).asString());
        }
        if (!ok) {
            errs.push_back(where + ": type mismatch");
            return;
        }
    }

    if (const Json *allowed = schema.find("enum")) {
        bool ok = false;
        for (size_t i = 0; i < allowed->size(); ++i)
            ok = ok || doc == allowed->at(i);
        if (!ok)
            errs.push_back(where + ": value not in enum");
    }

    if (const Json *min = schema.find("minimum");
        min && doc.isNumber() && doc.asDouble() < min->asDouble())
        errs.push_back(where + ": below minimum " + min->dump());
    if (const Json *min = schema.find("exclusiveMinimum");
        min && doc.isNumber() && doc.asDouble() <= min->asDouble())
        errs.push_back(where + ": not above exclusiveMinimum "
                       + min->dump());

    if (const Json *required = schema.find("required")) {
        for (size_t i = 0; i < required->size(); ++i) {
            const std::string &key = required->at(i).asString();
            if (!doc.find(key))
                errs.push_back(where + ": missing required key \""
                               + key + "\"");
        }
    }

    const Json *props = schema.find("properties");
    if (props && doc.isObject()) {
        for (const JsonMember &m : doc.members()) {
            if (const Json *sub = props->find(m.key)) {
                validate(m.value, *sub, where + "." + m.key, errs);
            } else if (const Json *extra =
                           schema.find("additionalProperties");
                       extra && extra->isBool() && !extra->asBool()) {
                errs.push_back(where + ": unexpected key \"" + m.key
                               + "\"");
            }
        }
    }

    if (const Json *items = schema.find("items"); items && doc.isArray()) {
        for (size_t i = 0; i < doc.size(); ++i)
            validate(doc.at(i), *items,
                     where + "[" + std::to_string(i) + "]", errs);
    }
}

bool
checkDocument(const std::string &text, const Json &schema,
              const std::string &where)
{
    Result<Json> doc = Json::parse(text);
    if (!doc.ok()) {
        std::fprintf(stderr, "json-check: %s: %s\n", where.c_str(),
                     doc.error().context.c_str());
        return false;
    }
    std::vector<std::string> errs;
    validate(doc.value(), schema, "$", errs);
    for (const std::string &e : errs)
        std::fprintf(stderr, "json-check: %s: %s\n", where.c_str(),
                     e.c_str());
    return errs.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    bool jsonl = false;
    std::vector<const char *> paths;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--jsonl"))
            jsonl = true;
        else
            paths.push_back(argv[i]);
    }
    if (paths.size() < 2) {
        std::fprintf(stderr,
                     "usage: json_check [--jsonl] schema.json "
                     "file.json...\n");
        return 2;
    }

    std::ifstream schema_in(paths[0]);
    if (!schema_in) {
        std::fprintf(stderr, "json-check: cannot open schema %s\n",
                     paths[0]);
        return 2;
    }
    std::ostringstream schema_text;
    schema_text << schema_in.rdbuf();
    Result<Json> schema = Json::parse(schema_text.str());
    if (!schema.ok()) {
        std::fprintf(stderr, "json-check: schema %s: %s\n", paths[0],
                     schema.error().context.c_str());
        return 2;
    }

    bool all_ok = true;
    int documents = 0;
    for (size_t p = 1; p < paths.size(); ++p) {
        std::ifstream in(paths[p]);
        if (!in) {
            std::fprintf(stderr, "json-check: cannot open %s\n",
                         paths[p]);
            all_ok = false;
            continue;
        }
        if (jsonl) {
            std::string line;
            int lineno = 0;
            while (std::getline(in, line)) {
                ++lineno;
                if (line.find_first_not_of(" \t\r") == std::string::npos)
                    continue;
                ++documents;
                all_ok = checkDocument(line, schema.value(),
                                       std::string(paths[p]) + ":"
                                       + std::to_string(lineno))
                    && all_ok;
            }
        } else {
            std::ostringstream text;
            text << in.rdbuf();
            ++documents;
            all_ok = checkDocument(text.str(), schema.value(), paths[p])
                && all_ok;
        }
    }
    if (!documents) {
        std::fprintf(stderr, "json-check: no documents validated\n");
        return 1;
    }
    if (all_ok)
        std::printf("json-check: %d document%s conform to %s\n",
                    documents, documents == 1 ? "" : "s", paths[0]);
    return all_ok ? 0 : 1;
}
