// LayoutDb: pahole/DWARF substitute.
//
// Computes x86-64 struct layouts (sizes, alignments, field offsets) from
// parsed definitions, and — the part SPADE actually consumes — counts the
// callback pointers a struct exposes:
//   * direct callbacks: function-pointer fields, including those of embedded
//     (by-value) structs — overwriting one redirects kernel control flow;
//   * spoofable callbacks: callbacks reachable through struct-pointer fields.
//     Overwriting the *pointer* to aim at an attacker-crafted instance spoofs
//     every callback in the pointed-to type (footnote 3 of the paper).

#ifndef SPV_SPADE_LAYOUT_DB_H_
#define SPV_SPADE_LAYOUT_DB_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "spade/ast.h"

namespace spv::spade {

struct FieldLayout {
  std::string name;
  uint64_t offset = 0;
  uint64_t size = 0;
  TypeRef type;
  bool is_callback = false;  // function-pointer field
};

struct StructLayout {
  std::string name;
  uint64_t size = 0;
  uint64_t alignment = 1;
  std::vector<FieldLayout> fields;
  uint32_t direct_callbacks = 0;
  uint32_t spoofable_callbacks = 0;
};

class LayoutDb {
 public:
  void AddStruct(const StructDef& def);

  // Computes all layouts and callback counts. Structs referenced but never
  // defined are treated as opaque 64-byte blobs with no callbacks (what
  // pahole shows for types compiled out of scope).
  Status Finalize();

  const StructLayout* Find(const std::string& name) const;

  // Dotted paths of every directly exposed callback field, recursing into
  // embedded structs (Fig 2's "fcp_req.done"). Call after Finalize().
  std::vector<std::string> CallbackFieldPaths(const std::string& name) const;

  // Size of a scalar/pointer type on x86-64.
  static uint64_t ScalarSize(const TypeRef& type);
  static uint64_t ScalarAlign(const TypeRef& type);

 private:
  Result<StructLayout*> Compute(const std::string& name, std::set<std::string>& in_progress);
  uint32_t CountReachableCallbacks(const std::string& name, std::set<std::string>& visited);

  std::map<std::string, StructDef> defs_;
  std::map<std::string, StructLayout> layouts_;
  bool finalized_ = false;
};

}  // namespace spv::spade

#endif  // SPV_SPADE_LAYOUT_DB_H_
