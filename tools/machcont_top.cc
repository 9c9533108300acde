// machcont_top: renders a snapshot stream as a table over time.
//
// Consumes the JSONL written by `machcont_sim --snapshot-out=...` (one row
// per node per snapshot boundary, from the local sink or, with --telemetry,
// the node-0 collector) and prints a per-boundary, per-node table: CPU
// utilization, run-queue depth, packet and retransmit deltas, windowed rpc
// tail latencies, SLO violations, stalls, and service columns when present.
//
// Usage:
//   machcont_top ROWS.jsonl      (or `-` for stdin)
//
// Exits 0 when the input was readable, 1 otherwise. An input with no
// snapshot rows prints the header and "(no snapshot rows)".
#include <cstdio>
#include <cstring>
#include <string>

#include "src/obs/snapshot.h"

namespace {

bool ReadAll(std::FILE* f, std::string* out) {
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  return std::ferror(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fprintf(stderr, "usage: %s ROWS.jsonl   (use - for stdin)\n", argv[0]);
    return argc == 2 ? 0 : 1;
  }

  std::string rows;
  if (std::strcmp(argv[1], "-") == 0) {
    if (!ReadAll(stdin, &rows)) {
      std::fprintf(stderr, "machcont_top: error reading stdin\n");
      return 1;
    }
  } else {
    std::FILE* f = std::fopen(argv[1], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "machcont_top: cannot read '%s'\n", argv[1]);
      return 1;
    }
    bool ok = ReadAll(f, &rows);
    std::fclose(f);
    if (!ok) {
      std::fprintf(stderr, "machcont_top: error reading '%s'\n", argv[1]);
      return 1;
    }
  }

  std::printf("%s", mkc::FormatSnapshotTable(rows).c_str());
  return 0;
}
