#include "spade/analyzer.h"

#include "base/types.h"
#include <functional>

#include <algorithm>
#include <sstream>

namespace spv::spade {

namespace {
constexpr int kMaxInterproceduralDepth = 4;

std::string Fmt(const std::string& file, int line, const std::string& what) {
  return file + ":" + std::to_string(line) + ": " + what;
}
}  // namespace

bool IsDmaMapFunction(const std::string& name) {
  return name == "dma_map_single" || name == "dma_map_page" || name == "dma_map_sg" ||
         name == "pci_map_single" || name == "dma_map_single_attrs";
}

bool IsPageFragAllocator(const std::string& name) {
  return name == "netdev_alloc_skb" || name == "napi_alloc_skb" ||
         name == "netdev_alloc_frag" || name == "napi_alloc_frag" ||
         name == "page_frag_alloc" || name == "__netdev_alloc_skb";
}

bool IsPrivateDataApi(const std::string& name) {
  return name == "netdev_priv" || name == "aead_request_ctx" || name == "scsi_cmd_priv" ||
         name == "skcipher_request_ctx" || name == "usb_get_intfdata";
}

bool IsHeapAllocator(const std::string& name) {
  return name == "kmalloc" || name == "kzalloc" || name == "kcalloc" ||
         name == "kmem_cache_alloc";
}

void SpadeAnalyzer::AddFile(SourceFile file) {
  for (const StructDef& def : file.structs) {
    layout_db_.AddStruct(def);
  }
  files_.push_back(std::move(file));
}

Result<std::vector<SiteFinding>> SpadeAnalyzer::Analyze() {
  trace::ScopedSpan span(tracer_, "spade.analyze");
  if (!finalized_) {
    SPV_RETURN_IF_ERROR(layout_db_.Finalize());
    finalized_ = true;
  }
  std::vector<SiteFinding> findings;
  for (const SourceFile& file : files_) {
    for (const FuncDef& func : file.functions) {
      AnalyzeFunction(file, func, findings);
    }
  }
  if (hub_ != nullptr && hub_->active()) {
    for (const SiteFinding& finding : findings) {
      const bool vulnerable = finding.callbacks_exposed || finding.shared_info_mapped ||
                              finding.type_c || finding.private_data ||
                              finding.stack_mapped || finding.via_build_skb;
      if (!vulnerable) {
        continue;
      }
      telemetry::Event event;
      event.kind = telemetry::EventKind::kSpadeFinding;
      event.severity = telemetry::Severity::kWarn;
      event.len = static_cast<uint64_t>(finding.line);
      // Pack the classification flags so exports stay grep-able without the
      // SiteFinding struct: bit 0 = callbacks, 1 = shared_info, 2 = type (c),
      // 3 = private data, 4 = stack, 5 = build_skb.
      event.aux = (finding.callbacks_exposed ? 1u : 0u) |
                  (finding.shared_info_mapped ? 2u : 0u) | (finding.type_c ? 4u : 0u) |
                  (finding.private_data ? 8u : 0u) | (finding.stack_mapped ? 16u : 0u) |
                  (finding.via_build_skb ? 32u : 0u);
      event.flag = finding.possible_false_positive;
      event.origin = this;
      event.site = finding.file + ":" + std::to_string(finding.line) + " " +
                   finding.function + " -> " + finding.callee;
      hub_->Publish(event);
      if (hub_->enabled()) {
        ++hub_->counter("spade.vulnerable_sites");
      }
    }
  }
  return findings;
}

void SpadeAnalyzer::AnalyzeFunction(const SourceFile& file, const FuncDef& func,
                                    std::vector<SiteFinding>& out) {
  WalkStmts(file, func, func.body, out);
}

void SpadeAnalyzer::WalkStmts(const SourceFile& file, const FuncDef& func,
                              const std::vector<Stmt>& stmts, std::vector<SiteFinding>& out) {
  for (const Stmt& stmt : stmts) {
    if (stmt.init != nullptr) {
      VisitExpr(file, func, *stmt.init, out);
    }
    if (stmt.expr != nullptr) {
      VisitExpr(file, func, *stmt.expr, out);
    }
    WalkStmts(file, func, stmt.body, out);
    WalkStmts(file, func, stmt.else_body, out);
  }
}

void SpadeAnalyzer::VisitExpr(const SourceFile& file, const FuncDef& func, const Expr& expr,
                              std::vector<SiteFinding>& out) {
  if (expr.kind == Expr::Kind::kCall && IsDmaMapFunction(expr.CalleeName())) {
    out.push_back(AnalyzeMapSite(file, func, expr));
  }
  if (expr.kind == Expr::Kind::kCall) {
    const std::string callee = expr.CalleeName();
    if (IsPageFragAllocator(callee) || callee == "build_skb") {
      api_uses_.push_back(ApiUse{file.path, expr.line, callee});
    }
  }
  if (expr.lhs != nullptr) {
    VisitExpr(file, func, *expr.lhs, out);
  }
  if (expr.rhs != nullptr) {
    VisitExpr(file, func, *expr.rhs, out);
  }
  for (const ExprPtr& arg : expr.args) {
    VisitExpr(file, func, *arg, out);
  }
}

SiteFinding SpadeAnalyzer::AnalyzeMapSite(const SourceFile& file, const FuncDef& func,
                                          const Expr& call) {
  SiteFinding finding;
  finding.file = file.path;
  finding.line = call.line;
  finding.function = func.name;
  finding.callee = call.CalleeName();
  finding.trace.push_back(
      Fmt(file.path, call.line, finding.callee + "(...) in " + func.name + "()"));

  // dma_map_single(dev, ptr, len, dir): mapped buffer is argument 1.
  // dma_map_page(dev, page, offset, len, dir): argument 1 as well.
  // dma_map_sg(dev, sgl, nents, dir): argument 1 is the scatterlist — the
  // real buffers were attached by sg_init_one/sg_set_buf, which we chase.
  if (call.args.size() < 2) {
    finding.unresolved = true;
    finding.trace.push_back("  could not identify mapped argument");
    return finding;
  }
  const Expr& buffer = *call.args[1];

  Origin origin;
  if (finding.callee == "dma_map_sg") {
    origin = ResolveScatterlistOrigin(file, func, buffer, call.line);
  } else {
    origin = ResolveBufferOrigin(file, func, buffer, 0);
  }
  for (const std::string& t : origin.trace) {
    finding.trace.push_back(t);
  }

  switch (origin.kind) {
    case Origin::Kind::kStructField:
    case Origin::Kind::kStackObject: {
      finding.exposes_struct = true;
      finding.exposed_struct = origin.struct_name;
      finding.stack_mapped = origin.kind == Origin::Kind::kStackObject;
      const StructLayout* layout = layout_db_.Find(origin.struct_name);
      if (layout != nullptr) {
        finding.direct_callbacks = layout->direct_callbacks;
        finding.spoofable_callbacks = layout->spoofable_callbacks;
        finding.callbacks_exposed =
            layout->direct_callbacks > 0 || layout->spoofable_callbacks > 0;
        finding.trace.push_back("  whole struct " + origin.struct_name + " (size " +
                                std::to_string(layout->size) +
                                ") shares the mapped page [type (a)]");
        if (layout->direct_callbacks > 0) {
          std::string names;
          for (const std::string& path : layout_db_.CallbackFieldPaths(origin.struct_name)) {
            names += (names.empty() ? "" : ", ") + path;
          }
          finding.trace.push_back("  callback pointers exposed directly: " +
                                  std::to_string(layout->direct_callbacks) + " (" + names +
                                  ")");
        }
        if (layout->spoofable_callbacks > 0) {
          finding.trace.push_back("  callback pointers spoofable via struct pointers: " +
                                  std::to_string(layout->spoofable_callbacks));
        }
        if (layout->size > kPageSize && finding.callbacks_exposed) {
          finding.possible_false_positive = true;
          finding.trace.push_back(
              "  (!) struct spans a page boundary — flagged callbacks may lie on an "
              "unmapped page (possible false positive, §4.3)");
        }
      }
      break;
    }
    case Origin::Kind::kSkbData:
    case Origin::Kind::kBuildSkb: {
      finding.shared_info_mapped = true;
      finding.via_build_skb = origin.kind == Origin::Kind::kBuildSkb;
      const StructLayout* shinfo = layout_db_.Find("skb_shared_info");
      finding.direct_callbacks = 0;
      finding.spoofable_callbacks = shinfo != nullptr ? shinfo->spoofable_callbacks : 0;
      finding.trace.push_back(
          "  skb_shared_info resides at the buffer tail [type (b), OS design]");
      if (origin.page_frag_origin) {
        finding.type_c = true;
        finding.trace.push_back(
            "  buffer came from a page_frag: page mapped by multiple IOVAs [type (c)]");
      }
      break;
    }
    case Origin::Kind::kPageFrag: {
      finding.type_c = true;
      finding.shared_info_mapped = true;  // the frag becomes skb data
      finding.trace.push_back(
          "  buffer carved from a page_frag: page mapped by multiple IOVAs [type (c)]");
      break;
    }
    case Origin::Kind::kPrivateData: {
      finding.private_data = true;
      finding.trace.push_back("  buffer points into a private-data region (netdev_priv-style)");
      break;
    }
    case Origin::Kind::kHeap: {
      finding.trace.push_back(
          "  kmalloc buffer: page may be shared with arbitrary objects [type (d), dynamic]");
      break;
    }
    case Origin::Kind::kUnknown: {
      finding.unresolved = true;
      finding.trace.push_back("  (!) could not follow the mapped variable — possible "
                              "false negative (function pointers / macros)");
      break;
    }
  }
  return finding;
}

SpadeAnalyzer::Origin SpadeAnalyzer::ResolveScatterlistOrigin(const SourceFile& file,
                                                              const FuncDef& func,
                                                              const Expr& sg_arg,
                                                              int map_line) {
  Origin origin;
  // The scatterlist variable: `&sg` or `sg`.
  const Expr* sg_expr = &sg_arg;
  if (sg_expr->kind == Expr::Kind::kAddrOf && sg_expr->lhs != nullptr) {
    sg_expr = sg_expr->lhs.get();
  }
  if (sg_expr->kind != Expr::Kind::kIdent) {
    return origin;
  }
  const std::string sg_name = sg_expr->text;

  // Find sg_init_one/sg_set_buf(sg, buf, len) calls binding this scatterlist
  // before the map; the buffer is argument 1.
  const Expr* attach = nullptr;
  std::function<void(const Expr&)> visit = [&](const Expr& e) {
    if (e.kind == Expr::Kind::kCall &&
        (e.CalleeName() == "sg_init_one" || e.CalleeName() == "sg_set_buf") &&
        e.args.size() >= 2 && e.line <= map_line) {
      const Expr* first = e.args[0].get();
      if (first->kind == Expr::Kind::kAddrOf && first->lhs != nullptr) {
        first = first->lhs.get();
      }
      if (first->kind == Expr::Kind::kIdent && first->text == sg_name) {
        attach = &e;
      }
    }
    if (e.lhs) visit(*e.lhs);
    if (e.rhs) visit(*e.rhs);
    for (const ExprPtr& a : e.args) visit(*a);
  };
  std::function<void(const std::vector<Stmt>&)> walk = [&](const std::vector<Stmt>& stmts) {
    for (const Stmt& s : stmts) {
      if (s.init) visit(*s.init);
      if (s.expr) visit(*s.expr);
      walk(s.body);
      walk(s.else_body);
    }
  };
  walk(func.body);
  if (attach == nullptr) {
    origin.trace.push_back(Fmt(file.path, map_line,
                               "scatterlist " + sg_name + " has no visible sg_init_one/"
                               "sg_set_buf — cannot follow"));
    return origin;
  }
  Origin from_buffer = ResolveBufferOrigin(file, func, *attach->args[1], 0);
  from_buffer.trace.insert(from_buffer.trace.begin(),
                           Fmt(file.path, attach->line,
                               "scatterlist " + sg_name + " attached to buffer by " +
                                   attach->CalleeName() + "()"));
  return from_buffer;
}

void SpadeAnalyzer::CollectBindings(const std::vector<Stmt>& stmts, const std::string& name,
                                    std::vector<Binding>& out) {
  for (const Stmt& stmt : stmts) {
    if (stmt.kind == Stmt::Kind::kDecl && stmt.decl_name == name) {
      out.push_back(Binding{stmt.line, stmt.init.get(), &stmt.decl_type});
    }
    if (stmt.kind == Stmt::Kind::kExpr && stmt.expr != nullptr &&
        stmt.expr->kind == Expr::Kind::kAssign && stmt.expr->lhs != nullptr &&
        stmt.expr->lhs->kind == Expr::Kind::kIdent && stmt.expr->lhs->text == name) {
      out.push_back(Binding{stmt.line, stmt.expr->rhs.get(), nullptr});
    }
    CollectBindings(stmt.body, name, out);
    CollectBindings(stmt.else_body, name, out);
  }
}

std::optional<TypeRef> SpadeAnalyzer::TypeOfIdent(const FuncDef& func, const std::string& name,
                                                  int use_line) const {
  std::optional<TypeRef> best;
  int best_line = -1;
  std::vector<Binding> bindings;
  CollectBindings(func.body, name, bindings);
  for (const Binding& binding : bindings) {
    if (binding.type != nullptr && binding.line <= use_line && binding.line > best_line) {
      best = *binding.type;
      best_line = binding.line;
    }
  }
  if (best.has_value()) {
    return best;
  }
  for (const ParamDecl& param : func.params) {
    if (param.name == name) {
      return param.type;
    }
  }
  return std::nullopt;
}

SpadeAnalyzer::Origin SpadeAnalyzer::ResolveBufferOrigin(const SourceFile& file,
                                                         const FuncDef& func, const Expr& expr,
                                                         int depth) {
  Origin origin;
  if (depth > kMaxInterproceduralDepth) {
    return origin;
  }

  switch (expr.kind) {
    case Expr::Kind::kAddrOf: {
      // &x->field / &x.field / &local / &local.field
      const Expr* inner = expr.lhs.get();
      if (inner == nullptr) {
        return origin;
      }
      if (inner->kind == Expr::Kind::kMember) {
        // Identify the struct that owns the field.
        const Expr* base = inner->lhs.get();
        while (base != nullptr && base->kind == Expr::Kind::kMember) {
          base = base->lhs.get();  // a.b.c: outermost struct is what's mapped
        }
        if (base != nullptr && base->kind == Expr::Kind::kIdent) {
          std::optional<TypeRef> type = TypeOfIdent(func, base->text, inner->line);
          if (type.has_value() && type->is_struct) {
            origin.kind = type->pointer_depth > 0 ? Origin::Kind::kStructField
                                                  : Origin::Kind::kStackObject;
            origin.struct_name = type->base;
            origin.trace.push_back(
                Fmt(file.path, inner->line,
                    "mapped pointer is &" + base->text +
                        (type->pointer_depth > 0 ? "->" : ".") + inner->text +
                        " — field of struct " + type->base));
            // Local (non-pointer) struct: on the stack.
            return origin;
          }
        }
        return origin;
      }
      if (inner->kind == Expr::Kind::kIdent) {
        std::optional<TypeRef> type = TypeOfIdent(func, inner->text, inner->line);
        if (type.has_value() && !type->IsPointer()) {
          origin.kind = Origin::Kind::kStackObject;
          origin.struct_name = type->is_struct ? type->base : type->base;
          origin.trace.push_back(Fmt(file.path, inner->line,
                                     "mapped pointer is &" + inner->text +
                                         " — local object on the stack"));
          return origin;
        }
      }
      if (inner->kind == Expr::Kind::kIndex && inner->lhs != nullptr &&
          inner->lhs->kind == Expr::Kind::kIdent) {
        std::optional<TypeRef> type = TypeOfIdent(func, inner->lhs->text, inner->line);
        if (type.has_value() && type->array_len > 0) {
          origin.kind = Origin::Kind::kStackObject;
          origin.struct_name = type->base;
          origin.trace.push_back(Fmt(file.path, inner->line,
                                     "mapped pointer is &" + inner->lhs->text +
                                         "[i] — local array on the stack"));
          return origin;
        }
      }
      return origin;
    }

    case Expr::Kind::kMember: {
      // x->data where x is an sk_buff: the canonical shared_info exposure.
      const Expr* base = expr.lhs.get();
      if (base != nullptr && base->kind == Expr::Kind::kIdent) {
        std::optional<TypeRef> type = TypeOfIdent(func, base->text, expr.line);
        if (type.has_value() && type->is_struct && type->base == "sk_buff" &&
            expr.text == "data") {
          origin.kind = Origin::Kind::kSkbData;
          origin.trace.push_back(Fmt(file.path, expr.line,
                                     "mapped pointer is " + base->text +
                                         "->data of struct sk_buff"));
          // Did the skb itself come from a page_frag allocator? Then the
          // mapping is ALSO a type (c): the page holds sibling buffers.
          Origin skb_origin = ResolveIdentOrigin(file, func, base->text, expr.line, depth + 1);
          if (skb_origin.kind == Origin::Kind::kPageFrag) {
            origin.page_frag_origin = true;
            for (const std::string& t : skb_origin.trace) {
              origin.trace.push_back(t);
            }
          }
          return origin;
        }
        // priv->field where priv came from netdev_priv etc.
        Origin base_origin = ResolveIdentOrigin(file, func, base->text, expr.line, depth);
        if (base_origin.kind == Origin::Kind::kPrivateData) {
          return base_origin;
        }
        // Generic pointer field of a struct: opaque heap buffer.
      }
      return origin;
    }

    case Expr::Kind::kIdent:
      return ResolveIdentOrigin(file, func, expr.text, expr.line, depth);

    case Expr::Kind::kCall:
      return OriginFromCall(file, func, expr, depth);

    case Expr::Kind::kCast:
    case Expr::Kind::kDeref:
      if (expr.lhs != nullptr) {
        return ResolveBufferOrigin(file, func, *expr.lhs, depth);
      }
      return origin;

    case Expr::Kind::kBinary:
      // ptr + offset: the base pointer decides.
      if (expr.lhs != nullptr) {
        return ResolveBufferOrigin(file, func, *expr.lhs, depth);
      }
      return origin;

    default:
      return origin;
  }
}

SpadeAnalyzer::Origin SpadeAnalyzer::ResolveIdentOrigin(const SourceFile& file,
                                                        const FuncDef& func,
                                                        const std::string& name, int use_line,
                                                        int depth) {
  Origin origin;
  std::vector<Binding> bindings;
  CollectBindings(func.body, name, bindings);

  // Latest binding at or before the use decides; later rebindings are a
  // different value.
  const Binding* best = nullptr;
  for (const Binding& binding : bindings) {
    if (binding.line <= use_line && (best == nullptr || binding.line > best->line)) {
      best = &binding;
    }
  }
  if (best != nullptr) {
    if (best->value != nullptr) {
      Origin from_value = ResolveBufferOrigin(file, func, *best->value, depth);
      if (from_value.kind != Origin::Kind::kUnknown) {
        std::string how = best->type != nullptr ? "declared" : "assigned";
        from_value.trace.insert(from_value.trace.begin(),
                                Fmt(file.path, best->line,
                                    name + " " + how + " here"));
        return from_value;
      }
    }
    if (best->type != nullptr && !best->type->IsPointer()) {
      origin.kind = Origin::Kind::kStackObject;
      origin.struct_name = best->type->base;
      origin.trace.push_back(Fmt(file.path, best->line, name + " is a local object"));
      return origin;
    }
    if (best->value == nullptr && best->type != nullptr) {
      // Declared but never visibly initialized: unknown.
      origin.trace.push_back(Fmt(file.path, best->line,
                                 name + " declared here (no visible initializer)"));
      return origin;
    }
  }

  // Parameter: go interprocedural through the callers.
  for (size_t i = 0; i < func.params.size(); ++i) {
    if (func.params[i].name == name) {
      Origin from_callers = ResolveParamOrigin(func, i, depth + 1);
      from_callers.trace.insert(
          from_callers.trace.begin(),
          Fmt(file.path, func.line, name + " is parameter " + std::to_string(i) + " of " +
                                        func.name + "() — tracing callers"));
      return from_callers;
    }
  }
  return origin;
}

SpadeAnalyzer::Origin SpadeAnalyzer::OriginFromCall(const SourceFile& file, const FuncDef& func,
                                                    const Expr& call, int depth) {
  Origin origin;
  const std::string callee = call.CalleeName();
  if (IsHeapAllocator(callee)) {
    origin.kind = Origin::Kind::kHeap;
    origin.trace.push_back(Fmt(file.path, call.line, "buffer from " + callee + "()"));
    return origin;
  }
  if (IsPageFragAllocator(callee)) {
    origin.kind = Origin::Kind::kPageFrag;
    origin.trace.push_back(Fmt(file.path, call.line,
                               "buffer from " + callee + "() — page_frag allocator"));
    return origin;
  }
  if (IsPrivateDataApi(callee)) {
    origin.kind = Origin::Kind::kPrivateData;
    origin.trace.push_back(Fmt(file.path, call.line, "pointer from " + callee + "()"));
    return origin;
  }
  if (callee == "build_skb") {
    origin.kind = Origin::Kind::kBuildSkb;
    origin.trace.push_back(Fmt(file.path, call.line,
                               "buffer wrapped by build_skb() — embeds skb_shared_info"));
    if (!call.args.empty()) {
      Origin arg_origin = ResolveBufferOrigin(file, func, *call.args[0], depth + 1);
      if (arg_origin.kind == Origin::Kind::kPageFrag || arg_origin.page_frag_origin) {
        origin.page_frag_origin = true;
        for (const std::string& t : arg_origin.trace) {
          origin.trace.push_back(t);
        }
      }
    }
    return origin;
  }
  // Unknown helper: function pointers / macros defeat the analysis (§4.3).
  return origin;
}

SpadeAnalyzer::Origin SpadeAnalyzer::ResolveParamOrigin(const FuncDef& callee,
                                                        size_t param_index, int depth) {
  Origin origin;
  if (depth > kMaxInterproceduralDepth) {
    return origin;
  }
  // Search every function in every file for calls to `callee`.
  for (const SourceFile& file : files_) {
    for (const FuncDef& caller : file.functions) {
      // Gather call expressions.
      std::vector<const Expr*> calls;
      std::function<void(const Expr&)> visit = [&](const Expr& e) {
        if (e.kind == Expr::Kind::kCall && e.CalleeName() == callee.name &&
            e.args.size() > param_index) {
          calls.push_back(&e);
        }
        if (e.lhs) visit(*e.lhs);
        if (e.rhs) visit(*e.rhs);
        for (const ExprPtr& a : e.args) visit(*a);
      };
      std::function<void(const std::vector<Stmt>&)> walk = [&](const std::vector<Stmt>& stmts) {
        for (const Stmt& s : stmts) {
          if (s.init) visit(*s.init);
          if (s.expr) visit(*s.expr);
          walk(s.body);
          walk(s.else_body);
        }
      };
      walk(caller.body);
      for (const Expr* call : calls) {
        Origin from_arg =
            ResolveBufferOrigin(file, caller, *call->args[param_index], depth);
        if (from_arg.kind != Origin::Kind::kUnknown) {
          from_arg.trace.insert(from_arg.trace.begin(),
                                Fmt(file.path, call->line,
                                    "called from " + caller.name + "()"));
          return from_arg;
        }
      }
    }
  }
  return origin;
}

Summary SpadeAnalyzer::Summarize(const std::vector<SiteFinding>& findings) const {
  Summary summary;
  std::set<std::string> all_files;
  std::set<std::string> f_callbacks, f_shinfo, f_direct, f_priv, f_stack, f_typec, f_build;
  // Rows 6 and 7 count API uses (paper: 344 page_frag uses, 46 build_skb
  // uses), independent of the dma_map backtracking.
  for (const ApiUse& use : api_uses_) {
    if (use.callee == "build_skb") {
      ++summary.build_skb_used.calls;
      f_build.insert(use.file);
    } else {
      ++summary.type_c.calls;
      f_typec.insert(use.file);
    }
  }
  for (const SiteFinding& finding : findings) {
    ++summary.total_calls;
    all_files.insert(finding.file);
    bool vulnerable = false;
    if (finding.exposes_struct && !finding.exposed_struct.empty()) {
      // Count genuine struct types; a bare stack array exposes bytes but is
      // not a "data structure" in the Table-2 sense.
      const StructLayout* layout = layout_db_.Find(finding.exposed_struct);
      if (layout != nullptr && !layout->fields.empty()) {
        summary.exposed_structs.insert(finding.exposed_struct);
      }
    }
    if (finding.callbacks_exposed) {
      ++summary.callbacks_exposed.calls;
      f_callbacks.insert(finding.file);
      vulnerable = true;
    }
    if (finding.shared_info_mapped) {
      ++summary.shared_info_mapped.calls;
      f_shinfo.insert(finding.file);
      vulnerable = true;
    }
    if (finding.callbacks_exposed && finding.direct_callbacks > 0) {
      ++summary.callbacks_exposed_directly.calls;
      f_direct.insert(finding.file);
    }
    if (finding.private_data) {
      ++summary.private_data_mapped.calls;
      f_priv.insert(finding.file);
      vulnerable = true;
    }
    if (finding.stack_mapped) {
      ++summary.stack_mapped.calls;
      f_stack.insert(finding.file);
      vulnerable = true;
    }
    if (finding.type_c) {
      vulnerable = true;
    }
    if (finding.via_build_skb) {
      vulnerable = true;
    }
    if (vulnerable) {
      ++summary.vulnerable_calls;
    }
  }
  summary.total_files = all_files.size();
  summary.callbacks_exposed.files = f_callbacks.size();
  summary.shared_info_mapped.files = f_shinfo.size();
  summary.callbacks_exposed_directly.files = f_direct.size();
  summary.private_data_mapped.files = f_priv.size();
  summary.stack_mapped.files = f_stack.size();
  summary.type_c.files = f_typec.size();
  summary.build_skb_used.files = f_build.size();
  if (hub_ != nullptr && hub_->enabled()) {
    // Table-2 rows as counters, so benches read the aggregation straight off
    // the bus export instead of the Summary struct.
    hub_->counter("spade.total_calls") = summary.total_calls;
    hub_->counter("spade.total_files") = summary.total_files;
    hub_->counter("spade.vulnerable_calls") = summary.vulnerable_calls;
    hub_->counter("spade.exposed_structs") = summary.exposed_structs.size();
    hub_->counter("spade.callbacks_exposed.calls") = summary.callbacks_exposed.calls;
    hub_->counter("spade.callbacks_exposed.files") = summary.callbacks_exposed.files;
    hub_->counter("spade.shared_info_mapped.calls") = summary.shared_info_mapped.calls;
    hub_->counter("spade.shared_info_mapped.files") = summary.shared_info_mapped.files;
    hub_->counter("spade.callbacks_exposed_directly.calls") =
        summary.callbacks_exposed_directly.calls;
    hub_->counter("spade.callbacks_exposed_directly.files") =
        summary.callbacks_exposed_directly.files;
    hub_->counter("spade.private_data_mapped.calls") = summary.private_data_mapped.calls;
    hub_->counter("spade.private_data_mapped.files") = summary.private_data_mapped.files;
    hub_->counter("spade.stack_mapped.calls") = summary.stack_mapped.calls;
    hub_->counter("spade.stack_mapped.files") = summary.stack_mapped.files;
    hub_->counter("spade.type_c.calls") = summary.type_c.calls;
    hub_->counter("spade.type_c.files") = summary.type_c.files;
    hub_->counter("spade.build_skb_used.calls") = summary.build_skb_used.calls;
    hub_->counter("spade.build_skb_used.files") = summary.build_skb_used.files;
  }
  return summary;
}

std::string Summary::ToString() const {
  std::ostringstream out;
  auto pct = [&](uint64_t n, uint64_t d) {
    if (d == 0) {
      return std::string("0.0%");
    }
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * static_cast<double>(n) /
                                                  static_cast<double>(d));
    return std::string(buf);
  };
  auto row = [&](const char* name, const SummaryRow& r, bool with_pct) {
    out << "  " << name << ": " << r.calls;
    if (with_pct) {
      out << " (" << pct(r.calls, total_calls) << ")";
    }
    out << " calls / " << r.files;
    if (with_pct) {
      out << " (" << pct(r.files, total_files) << ")";
    }
    out << " files\n";
  };
  out << "SPADE results summary (Table 2 shape)\n";
  row("1. Callbacks exposed          ", callbacks_exposed, true);
  row("2. skb_shared_info mapped     ", shared_info_mapped, true);
  row("3. Callbacks exposed directly ", callbacks_exposed_directly, false);
  row("4. Private data mapped        ", private_data_mapped, false);
  row("5. Stack mapped               ", stack_mapped, false);
  row("6. Type C vulnerability       ", type_c, false);
  row("7. build_skb used             ", build_skb_used, false);
  out << "  Total dma-map calls: " << total_calls << " over " << total_files << " files\n";
  out << "  Potentially vulnerable: " << vulnerable_calls << " ("
      << pct(vulnerable_calls, total_calls) << ")\n";
  out << "  Distinct exposed data structures: " << exposed_structs.size();
  if (!exposed_structs.empty() && exposed_structs.size() <= 24) {
    out << " (";
    bool first = true;
    for (const std::string& name : exposed_structs) {
      out << (first ? "" : ", ") << name;
      first = false;
    }
    out << ")";
  }
  out << "\n";
  return out.str();
}

}  // namespace spv::spade
