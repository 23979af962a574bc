// SPADE: Sub-Page Analysis for DMA Exposure (§4.1).
//
// Pipeline: for every dma_map* call site, identify the mapped variable,
// backtrack its declarations and assignments (interprocedurally when the
// buffer arrives as a parameter), resolve the exposed data structure in the
// LayoutDb, and classify:
//
//   type (a): the mapped buffer is embedded in a larger struct whose other
//             fields (callback pointers!) share the mapped page;
//   type (b): an OS API places metadata inside the buffer (build_skb /
//             skb->data always drag skb_shared_info along);
//   type (c): the buffer comes from a page_frag-family allocator, so the
//             page is mapped by multiple IOVAs;
//   plus the Table-2 extras: private-data APIs (netdev_priv & friends) and
//   stack-resident buffers.
//
// Known limitations, reproduced faithfully (§4.3): buffers passed through
// function pointers or assembled by macros are lost (false negatives);
// structs crossing a page boundary may be flagged although the callback
// field lies on the other page (false positives).

#ifndef SPV_SPADE_ANALYZER_H_
#define SPV_SPADE_ANALYZER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "spade/ast.h"
#include "spade/layout_db.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::spade {

// The set of functions implementing the DMA API (dma_map*).
bool IsDmaMapFunction(const std::string& name);
// page_frag-family allocators (type (c) creators, §5.2.2).
bool IsPageFragAllocator(const std::string& name);
// APIs returning pointers into pages that also hold sensitive private data.
bool IsPrivateDataApi(const std::string& name);
// Heap allocators (kmalloc family).
bool IsHeapAllocator(const std::string& name);

struct SiteFinding {
  std::string file;
  int line = 0;
  std::string function;   // enclosing function
  std::string callee;     // dma_map_single / dma_map_page / dma_map_sg

  // Classification flags (one site may set several).
  bool exposes_struct = false;       // type (a): mapped buffer inside a struct
  std::string exposed_struct;        // its name
  bool callbacks_exposed = false;    // exposed struct carries callbacks
  uint32_t direct_callbacks = 0;
  uint32_t spoofable_callbacks = 0;
  bool shared_info_mapped = false;   // type (b): skb->data / build_skb path
  bool via_build_skb = false;
  bool type_c = false;               // buffer from a page_frag allocator
  bool private_data = false;         // netdev_priv-style origin
  bool stack_mapped = false;         // buffer lives on the stack
  bool unresolved = false;           // SPADE could not follow the variable
  // §4.3 limitation, reproduced: the exposed struct is larger than a page,
  // so a flagged callback may live on a page the device cannot reach.
  bool possible_false_positive = false;

  std::vector<std::string> trace;    // Figure-2 style numbered backtrace
};

// Table 2 aggregation.
struct SummaryRow {
  uint64_t calls = 0;
  uint64_t files = 0;
};

struct Summary {
  // Distinct data structures found exposed on mapped pages (the paper counts
  // 19 exposed via private-data APIs alone).
  std::set<std::string> exposed_structs;
  SummaryRow callbacks_exposed;          // row 1
  SummaryRow shared_info_mapped;         // row 2
  SummaryRow callbacks_exposed_directly; // row 3
  SummaryRow private_data_mapped;        // row 4
  SummaryRow stack_mapped;               // row 5
  SummaryRow type_c;                     // row 6
  SummaryRow build_skb_used;             // row 7
  uint64_t total_calls = 0;
  uint64_t total_files = 0;
  uint64_t vulnerable_calls = 0;         // any flag set ("72.8%")

  std::string ToString() const;  // Table-2 shaped text
};

// A use of a vulnerability-creating API outside the map call itself: the
// paper counts page_frag-family uses (Table 2 row 6: 344) and build_skb uses
// (row 7: 46) as call sites, independent of dma_map backtracking.
struct ApiUse {
  std::string file;
  int line = 0;
  std::string callee;
};

class SpadeAnalyzer {
 public:
  // Publishes one kSpadeFinding event per vulnerable map site during
  // Analyze() and Table-2 counters during Summarize(). Pass nullptr to detach.
  void set_telemetry(telemetry::Hub* hub) { hub_ = hub; }

  // Optional causal span tracer: Analyze() runs under a "spade.analyze"
  // span so findings are causally linked to the scan. Pass nullptr to detach.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // Adds a parsed translation unit. Layouts from every file are pooled (the
  // kernel shares headers).
  void AddFile(SourceFile file);

  // Runs the analysis over everything added so far.
  Result<std::vector<SiteFinding>> Analyze();

  // Table-2 aggregation; uses the API-use counts collected by Analyze().
  Summary Summarize(const std::vector<SiteFinding>& findings) const;

  const LayoutDb& layout_db() const { return layout_db_; }

 private:
  struct Origin {
    enum class Kind {
      kUnknown,
      kStructField,   // &x->field / &x.field: struct exposed
      kSkbData,       // skb->data
      kPageFrag,      // page_frag-family allocation
      kHeap,          // kmalloc
      kPrivateData,   // netdev_priv etc.
      kStackObject,   // local (non-pointer) variable
      kBuildSkb,      // buffer passed to build_skb
    };
    Kind kind = Kind::kUnknown;
    std::string struct_name;       // for kStructField / kStackObject
    bool page_frag_origin = false; // buffer ultimately carved from a page_frag
    std::vector<std::string> trace;
  };

  void AnalyzeFunction(const SourceFile& file, const FuncDef& func,
                       std::vector<SiteFinding>& out);
  void WalkStmts(const SourceFile& file, const FuncDef& func, const std::vector<Stmt>& stmts,
                 std::vector<SiteFinding>& out);
  void VisitExpr(const SourceFile& file, const FuncDef& func, const Expr& expr,
                 std::vector<SiteFinding>& out);
  SiteFinding AnalyzeMapSite(const SourceFile& file, const FuncDef& func, const Expr& call);

  Origin ResolveBufferOrigin(const SourceFile& file, const FuncDef& func, const Expr& expr,
                             int depth);
  // dma_map_sg: chase the scatterlist back through sg_init_one/sg_set_buf.
  Origin ResolveScatterlistOrigin(const SourceFile& file, const FuncDef& func,
                                  const Expr& sg_arg, int map_line);
  Origin ResolveIdentOrigin(const SourceFile& file, const FuncDef& func,
                            const std::string& name, int use_line, int depth);
  Origin OriginFromCall(const SourceFile& file, const FuncDef& func, const Expr& call,
                        int depth);
  std::optional<TypeRef> TypeOfIdent(const FuncDef& func, const std::string& name,
                                     int use_line) const;
  Origin ResolveParamOrigin(const FuncDef& callee, size_t param_index, int depth);

  // Collects (decl/assign) statements that bind `name` in the function.
  struct Binding {
    int line = 0;
    const Expr* value = nullptr;   // initializer / rhs, may be null
    const TypeRef* type = nullptr; // for decls
  };
  static void CollectBindings(const std::vector<Stmt>& stmts, const std::string& name,
                              std::vector<Binding>& out);

  std::vector<SourceFile> files_;
  LayoutDb layout_db_;
  std::vector<ApiUse> api_uses_;
  bool finalized_ = false;
  telemetry::Hub* hub_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace spv::spade

#endif  // SPV_SPADE_ANALYZER_H_
