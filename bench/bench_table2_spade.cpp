// Table 2: SPADE results summary.
//
// The paper scans Linux 5.0 (1019 dma-map calls over 447 files). We cannot
// ship the kernel tree, so this harness *generates* a corpus at the same
// scale from driver templates whose category mix mirrors the kernel's
// (~52% of driver files map skb data, ~13% expose driver structs, a handful
// map private data or the stack, the rest map dedicated heap buffers), runs
// the real analyzer over it, and prints the Table-2 rows next to the paper's.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "spade/analyzer.h"
#include "spade/corpus.h"
#include "telemetry/telemetry.h"

using namespace spv;
namespace fs = std::filesystem;

namespace {

std::string Substitute(std::string text, const std::string& tag) {
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '@') {
      out += tag;
    } else {
      out += text[i];
    }
  }
  return out;
}

// Category templates. '@' is replaced with a unique per-file tag.
const char* kNetSkbTemplate = R"(
struct rxq_@ {
    struct device *dev;
    struct net_device *netdev;
    u32 buf_len;
};
static int rx_alloc_@(struct rxq_@ *rq)
{
    struct sk_buff *skb;
    dma_addr_t dma;
    skb = netdev_alloc_skb(rq->netdev, rq->buf_len);
    if (!skb) { return -1; }
    dma = dma_map_single(rq->dev, skb->data, rq->buf_len, DMA_FROM_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
static int xmit_@(struct rxq_@ *tq, struct sk_buff *skb)
{
    dma_addr_t dma;
    dma = dma_map_single(tq->dev, skb->data, skb->len, DMA_TO_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
)";

const char* kBuildSkbTemplate = R"(
struct ring_@ {
    struct device *dev;
    u32 frag_len;
};
static int refill_@(struct ring_@ *r)
{
    void *data;
    dma_addr_t dma;
    data = napi_alloc_frag(r->frag_len);
    if (!data) { return -1; }
    dma = dma_map_single(r->dev, data, r->frag_len, DMA_FROM_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
static struct sk_buff *wrap_@(struct ring_@ *r, void *data)
{
    struct sk_buff *skb;
    skb = build_skb(data, r->frag_len);
    return skb;
}
)";

const char* kTypeADirectTemplate = R"(
struct op_@ {
    u8 rsp_buf[128];
    u32 state;
    void (*done)(struct op_@ *op);
    void (*error)(struct op_@ *op, int code);
};
struct hw_@ {
    struct device *dev;
};
static int map_op_@(struct hw_@ *hw, struct op_@ *op)
{
    dma_addr_t dma;
    dma = dma_map_single(hw->dev, &op->rsp_buf, 128, DMA_FROM_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
static int map_op_again_@(struct hw_@ *hw, struct op_@ *op)
{
    dma_addr_t dma;
    dma = dma_map_single(hw->dev, &op->rsp_buf, 64, DMA_BIDIRECTIONAL);
    if (!dma) { return -1; }
    return 0;
}
)";

const char* kTypeASpoofTemplate = R"(
struct ops_@ {
    void (*start)(void *p);
    void (*stop)(void *p);
    void (*reset)(void *p);
};
struct req_@ {
    u8 iu[192];
    u32 tag;
    struct ops_@ *ops;
};
struct ctl_@ {
    struct device *dev;
};
static int map_req_@(struct ctl_@ *ctl, struct req_@ *req)
{
    dma_addr_t dma;
    dma = dma_map_single(ctl->dev, &req->iu, 192, DMA_TO_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
static int remap_req_@(struct ctl_@ *ctl, struct req_@ *req)
{
    dma_addr_t dma;
    dma = dma_map_single(ctl->dev, &req->iu, 96, DMA_FROM_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
)";

const char* kPrivateTemplate = R"(
struct acc_@ {
    struct device *dev;
};
static int enc_@(struct acc_@ *acc, struct aead_request *req)
{
    void *ctx;
    dma_addr_t dma;
    ctx = aead_request_ctx(req);
    dma = dma_map_single(acc->dev, ctx, 256, DMA_BIDIRECTIONAL);
    if (!dma) { return -1; }
    return 0;
}
static int enc2_@(struct acc_@ *acc, struct aead_request *req)
{
    void *ctx;
    dma_addr_t dma;
    ctx = aead_request_ctx(req);
    dma = dma_map_single(acc->dev, ctx, 128, DMA_TO_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
static int enc3_@(struct acc_@ *acc, struct aead_request *req)
{
    void *ctx;
    dma_addr_t dma;
    ctx = aead_request_ctx(req);
    dma = dma_map_single(acc->dev, ctx, 64, DMA_TO_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
)";

const char* kStackTemplate = R"(
struct hcd_@ {
    struct device *dev;
};
struct setup_@ {
    u8 request_type;
    u8 request;
    u16 value;
};
static int submit_@(struct hcd_@ *hcd)
{
    struct setup_@ setup;
    dma_addr_t dma;
    setup.request = 6;
    dma = dma_map_single(hcd->dev, &setup, sizeof(struct setup_@), DMA_TO_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
)";

const char* kCleanTemplate = R"(
struct q_@ {
    struct device *dev;
};
static int setup_@(struct q_@ *q, u32 len)
{
    void *table;
    dma_addr_t dma;
    table = kzalloc(len, GFP_KERNEL);
    if (!table) { return -1; }
    dma = dma_map_single(q->dev, table, len, DMA_BIDIRECTIONAL);
    if (!dma) { return -1; }
    return 0;
}
static int setup2_@(struct q_@ *q, u32 len)
{
    void *buf;
    dma_addr_t dma;
    buf = kmalloc(len, GFP_KERNEL);
    if (!buf) { return -1; }
    dma = dma_map_single(q->dev, buf, len, DMA_FROM_DEVICE);
    if (!dma) { return -1; }
    return 0;
}
)";

struct Category {
  const char* name;
  const char* body;
  int files;
};

void Generate(const fs::path& dir) {
  // Mix tuned to Linux 5.0 proportions (Table 2).
  const Category categories[] = {
      {"net", kNetSkbTemplate, 225},       // skb->data mappers (row 2 files)
      {"bskb", kBuildSkbTemplate, 40},     // build_skb users (row 7)
      {"opsa", kTypeADirectTemplate, 28},  // direct callbacks (row 3 files)
      {"spoof", kTypeASpoofTemplate, 29},  // spoofable-only (rest of row 1)
      {"priv", kPrivateTemplate, 7},       // private data (row 4)
      {"stk", kStackTemplate, 3},          // stack mapped (row 5)
      {"clean", kCleanTemplate, 115},      // dedicated heap buffers
  };
  fs::create_directories(dir);
  for (const Category& category : categories) {
    for (int i = 0; i < category.files; ++i) {
      const std::string tag = std::string(category.name) + std::to_string(i);
      std::ofstream out{dir / (tag + ".c")};
      out << Substitute(category.body, tag);
    }
  }
}

// Rows are read back from the telemetry export, not the Summary struct: the
// analyzer publishes Table-2 counters onto the bus and this harness consumes
// them the way any external tool consuming ExportJson would.
void PrintRow(const telemetry::Hub& hub, const char* name, const std::string& counter,
              const char* paper) {
  const uint64_t calls = hub.counter_value("spade." + counter + ".calls");
  const uint64_t files = hub.counter_value("spade." + counter + ".files");
  const uint64_t total_calls = hub.counter_value("spade.total_calls");
  const uint64_t total_files = hub.counter_value("spade.total_files");
  std::printf("  %-30s %5llu calls (%4.1f%%) / %3llu files (%4.1f%%)   paper: %s\n", name,
              static_cast<unsigned long long>(calls),
              total_calls ? 100.0 * static_cast<double>(calls) /
                                static_cast<double>(total_calls)
                          : 0.0,
              static_cast<unsigned long long>(files),
              total_files ? 100.0 * static_cast<double>(files) /
                                static_cast<double>(total_files)
                          : 0.0,
              paper);
}

}  // namespace

int main() {
  std::printf("== Table 2: SPADE results summary ==\n\n");

  const fs::path dir = fs::temp_directory_path() / "spv_table2_corpus";
  std::error_code ec;
  fs::remove_all(dir, ec);
  Generate(dir);

  telemetry::Hub::Config hub_config;
  hub_config.enabled = true;
  telemetry::Hub hub{hub_config};

  spade::SpadeAnalyzer analyzer;
  analyzer.set_telemetry(&hub);
  // Anchor corpus (hand-written driver models) + generated scale corpus.
  auto anchor = spade::LoadCorpusDirectory(analyzer, spade::DefaultCorpusDir());
  auto scale = spade::LoadCorpusDirectory(analyzer, dir.string());
  if (!anchor.ok() || !scale.ok()) {
    std::printf("corpus load failed\n");
    return 1;
  }
  std::printf("corpus: %zu anchor files + %zu generated files (%zu parse failures)\n\n",
              anchor->files_parsed, scale->files_parsed,
              anchor->files_failed + scale->files_failed);

  auto findings = analyzer.Analyze();
  if (!findings.ok()) {
    std::printf("analysis error: %s\n", findings.status().ToString().c_str());
    return 1;
  }
  (void)analyzer.Summarize(*findings);  // publishes the Table-2 counters

  std::printf("Stat                                 measured                              "
              "(Linux 5.0)\n");
  PrintRow(hub, "1. Callbacks exposed", "callbacks_exposed", "156 (15.3%) / 57 (12.8%)");
  PrintRow(hub, "2. skb_shared_info mapped", "shared_info_mapped",
           "464 (45.5%) / 232 (51.9%)");
  PrintRow(hub, "3. Callbacks exposed directly", "callbacks_exposed_directly", "54 / 28");
  PrintRow(hub, "4. Private data mapped", "private_data_mapped", "19 / 7");
  PrintRow(hub, "5. Stack mapped", "stack_mapped", "3 / 3");
  PrintRow(hub, "6. Type C vulnerability", "type_c", "344 / 227");
  PrintRow(hub, "7. build_skb used", "build_skb_used", "46 / 40");
  const uint64_t total_calls = hub.counter_value("spade.total_calls");
  const uint64_t vulnerable = hub.counter_value("spade.vulnerable_calls");
  std::printf("  %-30s %5llu calls / %3llu files                paper: 1019 / 447\n",
              "Total dma-map calls", static_cast<unsigned long long>(total_calls),
              static_cast<unsigned long long>(hub.counter_value("spade.total_files")));
  std::printf("  %-30s %5llu (%4.1f%%)                          paper: 742 (72.8%%)\n",
              "Potentially vulnerable", static_cast<unsigned long long>(vulnerable),
              total_calls ? 100.0 * static_cast<double>(vulnerable) /
                                static_cast<double>(total_calls)
                          : 0.0);
  std::printf("\n%llu vulnerable sites published to the trace ring (%llu recorded, "
              "%llu dropped)\n",
              static_cast<unsigned long long>(hub.counter_value("spade.vulnerable_sites")),
              static_cast<unsigned long long>(hub.ring().recorded()),
              static_cast<unsigned long long>(hub.ring().dropped()));
  fs::remove_all(dir, ec);
  return 0;
}
