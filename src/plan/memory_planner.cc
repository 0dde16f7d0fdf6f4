#include "plan/memory_planner.h"

#include <cstdio>
#include <cstring>

namespace genbase::plan {

namespace {

constexpr unsigned char kGuardByte = 0xA5;

}  // namespace

const char* RegionName(Region region) {
  switch (region) {
    case Region::kRetained:
      return "retained";
    case Region::kScratch:
      return "scratch";
    case Region::kExecute:
      return "execute";
  }
  return "?";
}

MemoryLayout LayOut(const PlanGraph& graph, const std::vector<bool>& folds) {
  const auto& ops = graph.ops();
  MemoryLayout layout;
  layout.slots.resize(graph.values().size());
  for (size_t o = 0; o < ops.size(); ++o) {
    for (int v : ops[o].outputs) {
      layout.slots[static_cast<size_t>(v)].region =
          folds[o] ? Region::kScratch : Region::kExecute;
    }
  }
  for (size_t o = 0; o < ops.size(); ++o) {
    if (folds[o]) continue;
    for (int v : ops[o].inputs) {
      Slot& slot = layout.slots[static_cast<size_t>(v)];
      if (slot.region == Region::kScratch) slot.region = Region::kRetained;
    }
  }
  for (const OpDef& op : ops) {
    for (int v : op.outputs) {
      Slot& slot = layout.slots[static_cast<size_t>(v)];
      int64_t& end = layout.region_bytes[static_cast<size_t>(slot.region)];
      const int64_t bytes = graph.values()[static_cast<size_t>(v)].spec.bytes();
      slot.offset = end;
      slot.size = (bytes + kSlotAlignment - 1) / kSlotAlignment *
                      kSlotAlignment +
                  kGuardBytes;
      end += slot.size;
    }
  }
  return layout;
}

void MemoryLayout::FillGuards(Region region, unsigned char* base) const {
  for (const Slot& slot : slots) {
    if (slot.region != region) continue;
    std::memset(base + slot.guard_offset(), kGuardByte,
                static_cast<size_t>(kGuardBytes));
  }
}

int MemoryLayout::OverwrittenGuard(Region region,
                                   const unsigned char* base) const {
  for (size_t v = 0; v < slots.size(); ++v) {
    if (slots[v].region != region) continue;
    const unsigned char* guard = base + slots[v].guard_offset();
    for (int64_t i = 0; i < kGuardBytes; ++i) {
      if (guard[i] != kGuardByte) return static_cast<int>(v);
    }
  }
  return -1;
}

std::string MemoryLayout::Dump(const PlanGraph& graph) const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "plan-layout: %zu values, retained=%lld B, scratch=%lld B, "
                "execute=%lld B\n",
                slots.size(), static_cast<long long>(bytes(Region::kRetained)),
                static_cast<long long>(bytes(Region::kScratch)),
                static_cast<long long>(bytes(Region::kExecute)));
  out += line;
  for (size_t v = 0; v < slots.size(); ++v) {
    const Slot& slot = slots[v];
    const ValueDef& val = graph.values()[v];
    std::snprintf(line, sizeof(line),
                  "  [%2zu] %-16s %6lldx%-6lld %10lld B  %-8s @%lld\n", v,
                  val.name.c_str(), static_cast<long long>(val.spec.rows),
                  static_cast<long long>(val.spec.cols),
                  static_cast<long long>(val.spec.bytes()),
                  RegionName(slot.region),
                  static_cast<long long>(slot.offset));
    out += line;
  }
  return out;
}

}  // namespace genbase::plan
