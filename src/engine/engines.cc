#include "engine/engines.h"

#include "common/check.h"
#include "engine/columnstore_engine.h"
#include "engine/hadoop_engine.h"
#include "engine/postgres_engine.h"
#include "engine/r_engine.h"
#include "engine/scidb_engine.h"

namespace genbase::engine {

std::unique_ptr<core::Engine> CreateVanillaR() {
  return std::make_unique<VanillaREngine>();
}
std::unique_ptr<core::Engine> CreatePostgresMadlib() {
  return std::make_unique<PostgresEngine>(PostgresAnalytics::kMadlib);
}
std::unique_ptr<core::Engine> CreatePostgresR() {
  return std::make_unique<PostgresEngine>(PostgresAnalytics::kExternalR);
}
std::unique_ptr<core::Engine> CreateColumnStoreR() {
  return std::make_unique<ColumnStoreEngine>(
      ColumnStoreAnalytics::kExternalR);
}
std::unique_ptr<core::Engine> CreateColumnStoreUdf() {
  return std::make_unique<ColumnStoreEngine>(ColumnStoreAnalytics::kUdf);
}
std::unique_ptr<core::Engine> CreateSciDb() {
  return std::make_unique<SciDbEngine>();
}
std::unique_ptr<core::Engine> CreateHadoop() {
  return std::make_unique<HadoopEngine>();
}

const EngineSpec& SingleNodeEngine(std::string_view key) {
  const EngineSpec* found = nullptr;
  for (const EngineSpec& spec : kSingleNodeEngines) {
    if (key == spec.key) found = &spec;
  }
  GENBASE_CHECK(found != nullptr);
  return *found;
}

}  // namespace genbase::engine
