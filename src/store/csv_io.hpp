// Human-editable CSV interchange for the selection store, used by
// `aks_tune store export/import`.
//
// Lives in the library (not the CLI) so the parser is unit-testable:
// every numeric field goes through common::parse_number, whose
// common::Error gains the line, column and field name here, and field
// counts are validated per record kind before any field is touched.
//
// Row formats (leading record-type column makes rows self-describing;
// blank lines and `#` comments are skipped):
//
//   device,<fingerprint-hex16>,<name>,<feature0>,...,<featureN-1>
//   selection,<fingerprint-hex16>,<m>,<k>,<n>,<config-index>,
//             <config-name>,<warmup-seconds>,<sweeps>,<quarantined>,
//             <source>,<cert-digest-hex16>
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "store/record.hpp"

namespace aks::store {

class SelectionStore;

/// 16-digit zero-padded lowercase hex (the fingerprint wire format).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Inverse of to_string(Source); unknown names map to Source::kImported so
/// hand-authored rows carry the import provenance tag.
[[nodiscard]] Source source_from_string(const std::string& name);

/// Naive split on ',' (fields are numbers, identifiers and config names —
/// none may contain commas, which import re-checks where it matters).
[[nodiscard]] std::vector<std::string> split_csv_row(const std::string& line);

/// Writes every device profile then every selection, full double precision.
void export_store_csv(const SelectionStore& store, std::ostream& out);

/// Replays rows into `store`; returns the number of rows applied (a
/// selection row superseded by a newer stored record counts as skipped).
/// Throws common::Error naming the 1-based line and column on any malformed
/// row: wrong field count, unknown record type, non-numeric or overflowing
/// field, bad hex fingerprint, or out-of-range config index.
std::size_t import_store_csv(std::istream& in, SelectionStore& store);

}  // namespace aks::store
