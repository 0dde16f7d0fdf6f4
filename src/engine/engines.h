#ifndef GENBASE_ENGINE_ENGINES_H_
#define GENBASE_ENGINE_ENGINES_H_

#include <memory>
#include <string_view>

#include "core/engine.h"

namespace genbase::engine {

/// Individual factories (used by examples and focused benches).
std::unique_ptr<core::Engine> CreateVanillaR();
std::unique_ptr<core::Engine> CreatePostgresMadlib();
std::unique_ptr<core::Engine> CreatePostgresR();
std::unique_ptr<core::Engine> CreateColumnStoreR();
std::unique_ptr<core::Engine> CreateColumnStoreUdf();
std::unique_ptr<core::Engine> CreateSciDb();
std::unique_ptr<core::Engine> CreateHadoop();

/// \brief One single-node configuration: the key its benchmark cells are
/// named by, its legend name (the engine's name()) and its factory.
struct EngineSpec {
  const char* key;
  const char* display;
  std::unique_ptr<core::Engine> (*factory)();
};

/// \brief The paper's seven single-node configurations (Section 4.1), in
/// figure-legend order: the one table figures and tests select from.
inline constexpr EngineSpec kSingleNodeEngines[] = {
    {"col_r", "Column store + R", CreateColumnStoreR},
    {"col_udf", "Column store + UDFs", CreateColumnStoreUdf},
    {"hadoop", "Hadoop", CreateHadoop},
    {"pg_madlib", "Postgres + Madlib", CreatePostgresMadlib},
    {"pg_r", "Postgres + R", CreatePostgresR},
    {"scidb", "SciDB", CreateSciDb},
    {"r", "Vanilla R", CreateVanillaR},
};

/// The kSingleNodeEngines entry with `key`; an unknown key is a programming
/// error (GENBASE_CHECK).
const EngineSpec& SingleNodeEngine(std::string_view key);

}  // namespace genbase::engine

#endif  // GENBASE_ENGINE_ENGINES_H_
