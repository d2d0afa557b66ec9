/**
 * @file
 * Register-file conformance: a sweep of every MMIO offset, from every
 * kind of function, under each optional-subsystem setup, checked
 * against tests/golden/registers.txt.
 *
 * The golden pins the externally visible ABI of the register page:
 * which offsets decode, who may read or write them, their reset
 * values, and the all-ones master-abort reads of absent subsystems.
 * Reads share one controller per setup (they have no side effects);
 * every write probe gets a fresh controller so side effects such as
 * FnReset, MgmtCommand or ObsWindowNs never leak into the next probe.
 *
 * On a mismatch the test writes the observed sweep to
 * registers.actual.txt in its working directory; diff it against the
 * golden, and copy it over only when the change is intended.
 *
 * The register table itself (Controller::registers()) is checked for
 * internal consistency and against the datasheet, docs/REGISTERS.md.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "controller_rig.h"
#include "repl/replica_set.h"

namespace nesc::ctrl {
namespace {

constexpr std::uint16_t kMaxVfs = 4;
constexpr std::uint64_t kDataBlocks = 128;

enum class Setup { kBare, kAttached, kObsArmed };

const char *
setup_name(Setup setup)
{
    switch (setup) {
      case Setup::kBare: return "bare";
      case Setup::kAttached: return "attached";
      case Setup::kObsArmed: return "obs";
    }
    return "?";
}

/** The functions probed: PF, a live VF, an empty slot, no function. */
struct Probe {
    pcie::FunctionId fn;
    const char *label;
};
constexpr Probe kProbes[] = {
    {pcie::kPhysicalFunctionId, "pf"},
    {1, "vf-live"},
    {2, "vf-inactive"},
    {kMaxVfs + 1, "fn-none"},
};

/** Every dword of the register page's decoded span. */
std::vector<std::uint64_t>
sweep_offsets()
{
    std::vector<std::uint64_t> offsets;
    for (std::uint64_t off = 0; off < 0x400; off += 4)
        offsets.push_back(off);
    // The per-queue doorbell aperture, plus the first dword past it.
    for (std::uint64_t off = reg::kQpDoorbell0;
         off <= reg::kQpDoorbell0 + 8 * kMaxQueuePairs; off += 4)
        offsets.push_back(off);
    return offsets;
}

storage::MemBlockDeviceConfig
media(std::uint64_t capacity_bytes)
{
    storage::MemBlockDeviceConfig cfg;
    cfg.capacity_bytes = capacity_bytes;
    return cfg;
}

/** One controller in a given setup, with VF 1 live. */
struct Rig : test::ControllerRig {
    explicit Rig(Setup setup)
        : ControllerRig(
              {.host_memory_bytes = 64 << 10,
               .media_bytes = test::sidecar_media_bytes(kDataBlocks),
               .config = {.max_vfs = kMaxVfs},
               .sidecar_data_blocks =
                   setup == Setup::kAttached ? kDataBlocks : 0})
    {
        if (setup == Setup::kAttached) {
            replicas = std::make_unique<repl::ReplicaSet>(
                sim_, repl::ReplicaSetConfig{});
            for (int i = 0; i < 2; ++i) {
                replica_media.push_back(
                    std::make_unique<storage::MemBlockDevice>(
                        media(device_.geometry().capacity_bytes +
                              64 * 1024)));
                replicas->add_backend(*replica_media.back(),
                                      repl::BackendConfig{});
            }
            controller_.attach_replicas(replicas.get());
        }
        pf_write(reg::kMgmtVfId, 1);
        pf_write(reg::kMgmtDeviceSize, 64);
        pf_write(reg::kMgmtCommand,
                 static_cast<std::uint64_t>(MgmtCommand::kCreateVf));
        EXPECT_TRUE(controller_.is_active(1));
        if (setup == Setup::kObsArmed)
            pf_write(reg::kObsWindowNs, 10'000);
    }

    ~Rig() { controller_.attach_replicas(nullptr); }

    std::vector<std::unique_ptr<storage::MemBlockDevice>> replica_media;
    std::unique_ptr<repl::ReplicaSet> replicas;
};

std::uint64_t
reg_violations(Controller &controller, pcie::FunctionId fn)
{
    return fn < controller.num_functions()
               ? controller.stats(fn).reg_violations
               : 0;
}

/** One golden line: the read and the write probe of one offset. */
std::string
probe_line(Setup setup, const Probe &probe, std::uint64_t offset,
           Controller &reader)
{
    char read[40];
    auto value = reader.mmio_read(probe.fn, offset, 8);
    if (value.is_ok())
        std::snprintf(read, sizeof read, "OK 0x%016" PRIx64, *value);
    else
        std::snprintf(read, sizeof read, "%s",
                      util::error_code_name(value.status().code()));
    Rig rig(setup);
    const std::uint64_t before = reg_violations(rig.controller_, probe.fn);
    const util::Status written =
        rig.controller_.mmio_write(probe.fn, offset, 1, 8);
    char line[160];
    std::snprintf(line, sizeof line,
                  "%s %s 0x%03" PRIx64 " R %s W %s violations+%" PRIu64
                  "\n",
                  setup_name(setup), probe.label, offset, read,
                  util::error_code_name(written.code()),
                  reg_violations(rig.controller_, probe.fn) - before);
    return line;
}

std::string
sweep()
{
    std::string out;
    for (Setup setup : {Setup::kBare, Setup::kAttached, Setup::kObsArmed}) {
        Rig reader(setup);
        for (const Probe &probe : kProbes)
            for (std::uint64_t offset : sweep_offsets())
                out += probe_line(setup, probe, offset, reader.controller_);
    }
    return out;
}

TEST(RegisterConformance, SweepMatchesGolden)
{
    const std::string actual = sweep();
    std::ifstream golden_file(NESC_REGISTERS_GOLDEN);
    std::stringstream golden;
    golden << golden_file.rdbuf();
    if (golden.str() == actual)
        return;
    std::ofstream("registers.actual.txt") << actual;
    // Point at the first differing line so the failure is readable
    // without opening either file.
    std::istringstream want(golden.str()), got(actual);
    std::string want_line, got_line;
    for (int line = 1;; ++line) {
        const bool more_want = static_cast<bool>(std::getline(want, want_line));
        const bool more_got = static_cast<bool>(std::getline(got, got_line));
        if (!more_want && !more_got)
            break;
        if (want_line != got_line || more_want != more_got) {
            ADD_FAILURE() << "register sweep differs from "
                          << NESC_REGISTERS_GOLDEN << " at line " << line
                          << "\n  golden: " << (more_want ? want_line : "<eof>")
                          << "\n  actual: " << (more_got ? got_line : "<eof>")
                          << "\n(full sweep written to registers.actual.txt)";
            return;
        }
    }
}

// --- The register table and the datasheet -------------------------------

using Access = Controller::RegAccess;

/** The datasheet's access notation for a table row (see REGISTERS.md). */
std::string
access_notation(const Controller::Register &row)
{
    if (row.read == Access::kAny && row.write == Access::kPf)
        return "RO (PF-page RW)";
    const std::string dirs = row.read == Access::kNone    ? "WO"
                             : row.write == Access::kNone ? "RO"
                                                          : "RW";
    const bool pf_only =
        row.read != Access::kAny && row.write != Access::kAny;
    return pf_only ? dirs + " (PF)" : dirs;
}

struct DocRow {
    std::string name;
    std::string access;
};

/** Trimmed cells of a markdown table line ("| a | b |" -> {a, b}). */
std::vector<std::string>
table_cells(const std::string &line)
{
    std::vector<std::string> cells;
    std::istringstream in(line.substr(1));
    std::string cell;
    while (std::getline(in, cell, '|')) {
        const auto first = cell.find_first_not_of(' ');
        const auto last = cell.find_last_not_of(' ');
        cells.push_back(first == std::string::npos
                            ? ""
                            : cell.substr(first, last - first + 1));
    }
    return cells;
}

/** Register rows of docs/REGISTERS.md, keyed by offset. */
std::map<std::uint64_t, DocRow>
datasheet_rows()
{
    std::ifstream doc(NESC_REGISTERS_DOC);
    EXPECT_TRUE(doc.is_open()) << NESC_REGISTERS_DOC;
    std::map<std::uint64_t, DocRow> rows;
    std::string line;
    while (std::getline(doc, line)) {
        // Register rows: | 0x80 | `MgmtVfId` | RW (PF) | meaning |
        if (line.rfind("| 0x", 0) != 0)
            continue;
        const std::vector<std::string> cells = table_cells(line);
        EXPECT_GE(cells.size(), 3u) << line;
        if (cells.size() < 3)
            continue;
        const std::string &name = cells[1];
        EXPECT_TRUE(name.size() > 2 && name.front() == '`' &&
                    name.back() == '`')
            << line;
        const std::uint64_t offset = std::stoull(cells[0], nullptr, 16);
        const DocRow row{name.substr(1, name.size() - 2), cells[2]};
        EXPECT_TRUE(rows.emplace(offset, row).second)
            << "datasheet lists offset " << cells[0] << " twice";
    }
    return rows;
}

TEST(RegisterTable, RowsAreOrderedAndDisjoint)
{
    std::set<std::uint64_t> decoded;
    const Controller::Register *prev = nullptr;
    for (const Controller::Register &row : Controller::registers()) {
        if (prev != nullptr) {
            EXPECT_GT(row.offset, prev->offset) << row.name;
        }
        prev = &row;
        for (std::uint64_t n = 0; n < row.count; ++n) {
            const std::uint64_t offset = row.offset + n * row.stride;
            EXPECT_EQ(offset % 4, 0u) << row.name;
            EXPECT_TRUE(decoded.insert(offset).second)
                << row.name << " overlaps another row at 0x" << std::hex
                << offset;
        }
        // A direction has a handler exactly when it is implemented.
        EXPECT_EQ(row.read != Access::kNone, row.on_read != nullptr)
            << row.name;
        EXPECT_EQ(row.write != Access::kNone, row.on_write != nullptr)
            << row.name;
        EXPECT_TRUE(row.read != Access::kNone || row.write != Access::kNone)
            << row.name;
    }
}

TEST(RegisterTable, EveryRowIsInTheDatasheet)
{
    const std::map<std::uint64_t, DocRow> doc = datasheet_rows();
    for (const Controller::Register &row : Controller::registers()) {
        auto it = doc.find(row.offset);
        ASSERT_TRUE(it != doc.end()) << row.name << " missing from datasheet";
        EXPECT_EQ(it->second.name, row.name);
        EXPECT_EQ(it->second.access, access_notation(row)) << row.name;
    }
}

TEST(RegisterTable, EveryDatasheetRowIsInTheTable)
{
    std::map<std::uint64_t, std::string> table;
    for (const Controller::Register &row : Controller::registers())
        table.emplace(row.offset, row.name);
    for (const auto &[offset, doc] : datasheet_rows()) {
        auto it = table.find(offset);
        ASSERT_TRUE(it != table.end())
            << doc.name << " at 0x" << std::hex << offset
            << " is not in the register table";
        EXPECT_EQ(it->second, doc.name);
    }
}

} // namespace
} // namespace nesc::ctrl
