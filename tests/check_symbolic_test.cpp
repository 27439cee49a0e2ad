// Positive-path coverage of the symbolic access verifier: the affine layer
// and the interval+congruence prover behave as specified, every shipped
// configuration's access summary proves SAFE for all shapes (zero UNKNOWN),
// capacity checks pass on every shipped device, certificates round-trip
// through CSV, and the JSON export renders both report kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "check/report_json.hpp"
#include "check/symbolic/access_summary.hpp"
#include "check/symbolic/certificate.hpp"
#include "check/symbolic/domain.hpp"
#include "check/symbolic/verifier.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "conv/conv2d.hpp"
#include "gemm/access_metadata.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"

namespace {

using namespace aks;
using namespace aks::check::symbolic;

// --- affine expressions -----------------------------------------------------

TEST(Affine, ArithmeticAndEval) {
  const AffineExpr e = sym_m() * 2 - sym_row0() + 3;
  EXPECT_EQ(e.coeff(Sym::m), 2);
  EXPECT_EQ(e.coeff(Sym::row0), -1);
  EXPECT_EQ(e.constant_term(), 3);
  Point p{};
  p[sym_index(Sym::m)] = 10;
  p[sym_index(Sym::row0)] = 4;
  EXPECT_EQ(e.eval(p), 19);
  EXPECT_FALSE(e.is_constant());
  EXPECT_TRUE((e - e).is_constant());
}

TEST(Affine, SubstituteReplacesSymbol) {
  // M - Row0 with Row0 := M - 8  ==>  8.
  const AffineExpr e = sym_m() - sym_row0();
  const AffineExpr sub = e.substitute(Sym::row0, sym_m() - 8);
  EXPECT_TRUE(sub.is_constant());
  EXPECT_EQ(sub.constant_term(), 8);
}

TEST(Affine, RendersReadably) {
  EXPECT_EQ((sym_m() - sym_row0() - 8).to_string(), "-Row0 + M - 8");
  EXPECT_EQ(AffineExpr::constant(0).to_string(), "0");
  EXPECT_EQ((sym_k() * 3).to_string(), "3*K");
}

// --- domain and prover ------------------------------------------------------

TEST(ShapeDomain, ProvesSimpleBounds) {
  ShapeDomain d;
  d.add_symbol(Sym::m, 1);
  d.add_symbol(Sym::row0, 0, sym_m() - 1);
  // Row0 >= 0 and M - Row0 - 1 >= 0 hold; Row0 - 1 >= 0 does not.
  EXPECT_TRUE(prove_nonneg(AffineExpr::sym(Sym::row0), d));
  EXPECT_TRUE(prove_nonneg(sym_m() - sym_row0() - 1, d));
  EXPECT_FALSE(prove_nonneg(sym_row0() - 1, d));
  // Unbounded above: -M + 100 >= 0 must not be provable.
  EXPECT_FALSE(prove_nonneg(AffineExpr::constant(100) - sym_m(), d));
  // Inactive symbol: expressions over Col0 are never proved.
  EXPECT_FALSE(prove_nonneg(AffineExpr::sym(Sym::col0), d));
}

TEST(ShapeDomain, CongruenceTightensConstantBounds) {
  // Row0 in [0, 10] with Row0 ≡ 0 (mod 4): the true maximum is 8.
  ShapeDomain d;
  d.add_symbol(Sym::row0, 0, AffineExpr::constant(10));
  d.add_congruence(Sym::row0, 4, 0);
  EXPECT_TRUE(prove_nonneg(AffineExpr::constant(8) - sym_row0(), d));
  EXPECT_FALSE(prove_nonneg(AffineExpr::constant(7) - sym_row0(), d));
}

TEST(ShapeDomain, AbsorbsTileOriginConstraints) {
  ShapeDomain d;
  d.add_symbol(Sym::m, 1);
  d.add_symbol(Sym::row0, 0);
  // Absorb M - Row0 - 8 >= 0 as an upper bound on Row0.
  EXPECT_TRUE(d.absorb_constraint(sym_m() - sym_row0() - 8));
  EXPECT_TRUE(prove_nonneg(sym_m() - sym_row0() - 8, d));
  EXPECT_FALSE(prove_nonneg(sym_m() - sym_row0() - 9, d));
  // A constraint coupling both tile origins has no single-symbol form.
  EXPECT_FALSE(d.absorb_constraint(sym_row0() + sym_col0()));
}

TEST(ShapeDomain, ContainsChecksBoundsAndCongruence) {
  ShapeDomain d;
  d.add_symbol(Sym::m, 1);
  d.add_symbol(Sym::row0, 0, sym_m() - 1);
  d.add_congruence(Sym::row0, 4, 0);
  Point p{};
  p[sym_index(Sym::m)] = 10;
  p[sym_index(Sym::row0)] = 8;
  EXPECT_TRUE(d.contains(p));
  p[sym_index(Sym::row0)] = 6;  // breaks the congruence
  EXPECT_FALSE(d.contains(p));
  p[sym_index(Sym::row0)] = 12;  // breaks the upper bound
  EXPECT_FALSE(d.contains(p));
}

// --- the shipped space is SAFE, for all shapes ------------------------------

TEST(SymbolicVerifier, EveryShippedConfigProvesSafeWithZeroUnknown) {
  std::size_t safe = 0;
  for (const auto& config : gemm::enumerate_configs()) {
    const auto pattern = gemm::tiled_access_pattern(config);
    for (const auto& summary :
         {summarize_tiled_gemm(pattern), summarize_batched_tiled_gemm(pattern)}) {
      const VerifyResult result = verify_access_summary(summary);
      EXPECT_EQ(result.verdict, Verdict::safe)
          << config.name() << " (" << summary.kernel << "): "
          << (result.findings.empty() ? "?" : result.findings[0].message);
      EXPECT_TRUE(result.findings.empty());
      ++safe;
    }
  }
  EXPECT_EQ(safe, 2u * 640u);
}

TEST(SymbolicVerifier, SafeVerdictCarriesShapePrecondition) {
  const auto pattern =
      gemm::tiled_access_pattern(gemm::KernelConfig::parse("t4x2_a8_wg16x8"));
  const auto tiled = verify_access_summary(summarize_tiled_gemm(pattern));
  EXPECT_EQ(tiled.precondition, "M >= 1 && K >= 1 && N >= 1");
  const auto batched =
      verify_access_summary(summarize_batched_tiled_gemm(pattern));
  EXPECT_EQ(batched.precondition, "M >= 1 && K >= 1 && N >= 1 && Batch >= 1");
}

TEST(SymbolicVerifier, CapacityIsCleanOnAllShippedDevices) {
  const auto devices = perf::DeviceSpec::shipped();
  ASSERT_EQ(devices.size(), 3u);
  for (const auto& config : gemm::enumerate_configs()) {
    const auto summary =
        summarize_tiled_gemm(gemm::tiled_access_pattern(config));
    for (const auto& device : devices) {
      const auto findings = check_capacity(summary, device);
      EXPECT_TRUE(findings.empty())
          << config.name() << " on " << device.name << ": "
          << (findings.empty() ? "" : findings[0].message);
    }
  }
}

TEST(SymbolicVerifier, WitnessCandidatesCoverTileBoundaries) {
  const auto pattern =
      gemm::tiled_access_pattern(gemm::KernelConfig::parse("t4x4_a2_wg8x8"));
  const auto shapes = witness_candidates(summarize_tiled_gemm(pattern));
  // The off-by-one shape M = pitch + 1 must be in the family — it is the
  // canonical edge-tile counterexample.
  const bool has_edge = std::any_of(
      shapes.begin(), shapes.end(),
      [](const WitnessShape& s) { return s.m == 5; });
  EXPECT_TRUE(has_edge);
  for (const auto& shape : shapes) {
    EXPECT_GE(shape.m, 1);
    EXPECT_GE(shape.k, 1);
    EXPECT_GE(shape.n, 1);
  }
}

TEST(SymbolicVerifier, WinogradBatchCountsAreInsideTheBatchedDomain) {
  // The conv lowerings run their multiplies as ONE batched launch of 16
  // (F(2x2,3x3)) or 36 (F(4x4,3x3)) entries. The batched-launch summaries
  // quantify over every batch count, so those concrete launches are points
  // of the verified domain — the certificates cover the conv layer too.
  const auto pattern =
      gemm::tiled_access_pattern(gemm::KernelConfig::parse("t4x2_a8_wg16x8"));
  const auto domain = domain_of(summarize_batched_tiled_gemm(pattern));
  const conv::ConvShape shape = {.batch = 1, .in_height = 8, .in_width = 8,
                                 .in_channels = 4, .out_channels = 4,
                                 .kernel = 3, .stride = 1, .padding = 1};
  for (const auto& lowering : conv::lowerings(shape)) {
    const std::size_t batch = lowering.multiplies;
    Point p{};
    p[sym_index(Sym::m)] = 8;
    p[sym_index(Sym::k)] = 8;
    p[sym_index(Sym::n)] = 8;
    p[sym_index(Sym::batch)] = static_cast<std::int64_t>(batch);
    p[sym_index(Sym::batch_idx)] = static_cast<std::int64_t>(batch) - 1;
    EXPECT_TRUE(domain.contains(p)) << "batch " << batch;
  }
}

// --- certificates -----------------------------------------------------------

TEST(Certify, FullSpaceIsAllSafe) {
  const auto report = certify_space(gemm::enumerate_configs(),
                                    perf::DeviceSpec::shipped());
  EXPECT_EQ(report.configs_checked, 640u);
  EXPECT_EQ(report.devices_checked, 3u);
  EXPECT_EQ(report.certificates.size(), 640u * 3u);
  EXPECT_EQ(report.count(Verdict::unknown), 0u);
  EXPECT_EQ(report.count(Verdict::unsafe), 0u);
  EXPECT_TRUE(report.all_safe());
  const auto mask = report.safe_mask(640);
  EXPECT_EQ(mask.size(), 640u);
  for (const bool safe : mask) EXPECT_TRUE(safe);
}

TEST(Certify, ReportRoundTripsThroughCsv) {
  CertifyOptions options;
  options.max_configs = 5;
  const auto report = certify_space(gemm::enumerate_configs(),
                                    perf::DeviceSpec::shipped(), options);
  const auto path = std::filesystem::temp_directory_path() /
                    "akscheck_certify_roundtrip_test.csv";
  report.save_csv(path);
  const auto loaded = check::symbolic::CertifyReport::load_csv(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.configs_checked, report.configs_checked);
  EXPECT_EQ(loaded.devices_checked, report.devices_checked);
  ASSERT_EQ(loaded.certificates.size(), report.certificates.size());
  for (std::size_t i = 0; i < report.certificates.size(); ++i) {
    EXPECT_EQ(loaded.certificates[i].config_index,
              report.certificates[i].config_index);
    EXPECT_EQ(loaded.certificates[i].config, report.certificates[i].config);
    EXPECT_EQ(loaded.certificates[i].device, report.certificates[i].device);
    EXPECT_EQ(loaded.certificates[i].verdict, report.certificates[i].verdict);
    EXPECT_EQ(loaded.certificates[i].precondition,
              report.certificates[i].precondition);
    EXPECT_EQ(loaded.certificates[i].witness, report.certificates[i].witness);
  }
}

TEST(Certify, LoadRejectsMalformedNumbersWithError) {
  CertifyOptions options;
  options.max_configs = 2;
  const auto report = certify_space(gemm::enumerate_configs(),
                                    perf::DeviceSpec::shipped(), options);
  const auto path = std::filesystem::temp_directory_path() /
                    "akscheck_certify_malformed_test.csv";
  report.save_csv(path);
  const auto valid = common::read_csv(path);
  const auto column = [&](const char* name) {
    return valid.column_index(name);
  };
  // Row 0 is the summary row; row 1 the first certificate. A witness is
  // exactly four 'x'-separated integers: 1y2z3w4junk is not 1x2x3x4.
  const std::vector<std::tuple<std::size_t, std::size_t, std::string>> cells =
      {{1, column("config_index"), "abc"},
       {1, column("config_index"), "-1"},
       {1, column("witness"), "1y2z3w4junk"},
       {1, column("witness"), "1x2x3x4x5"},
       {1, column("witness"), "1x2x3x"},
       {0, column("config_index"), "2x"},
       {0, column("device"), "99999999999999999999"}};
  for (const auto& [row, col, text] : cells) {
    auto table = valid;
    table.rows[row][col] = text;
    common::write_csv(path, table);
    EXPECT_THROW((void)CertifyReport::load_csv(path), common::Error)
        << "row " << row << " col " << col << " = '" << text << "'";
  }
  std::filesystem::remove(path);
}

TEST(Certify, SafeMaskFlagsNonSafeConfigs) {
  CertifyReport report;
  Certificate bad;
  bad.config_index = 1;
  bad.config = "x";
  bad.device = "d1";
  bad.verdict = Verdict::unsafe;
  report.certificates.push_back(bad);
  Certificate unknown;
  unknown.config_index = 2;
  unknown.config = "y";
  unknown.device = "d2";
  unknown.verdict = Verdict::unknown;
  report.certificates.push_back(unknown);
  // The mask fails closed: configs 0 and 3 have no certificate at all.
  const auto mask = report.safe_mask(4);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);  // unsafe
  EXPECT_FALSE(mask[2]);  // unknown is not safe
  EXPECT_FALSE(mask[3]);
  // Restricted to d1, config 2 has no certificate either.
  const auto d1 = report.safe_mask(4, "d1");
  EXPECT_FALSE(d1[1]);
  EXPECT_FALSE(d1[2]);

  // A certified report of the first 5 configs on the R9 Nano admits exactly
  // those 5, and nothing on a device it holds no certificate for.
  CertifyOptions options;
  options.max_configs = 5;
  const std::vector<perf::DeviceSpec> r9 = {perf::DeviceSpec::amd_r9_nano()};
  const auto partial = certify_space(gemm::enumerate_configs(), r9, options);
  ASSERT_TRUE(partial.all_safe());
  const auto on_r9 = partial.safe_mask(640, r9[0].name);
  EXPECT_EQ(std::count(on_r9.begin(), on_r9.end(), true), 5);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(on_r9[i]) << i;
  const auto on_igpu =
      partial.safe_mask(640, perf::DeviceSpec::integrated_gpu().name);
  EXPECT_EQ(std::count(on_igpu.begin(), on_igpu.end(), true), 0);
}

TEST(Certify, DifferentialAgreesOnSampledConfigs) {
  // A sampled slice of the full differential CI job: symbolic verdicts
  // versus dynamic replay must agree exactly.
  CertifyOptions options;
  options.max_configs = 8;
  const auto& configs = gemm::enumerate_configs();
  const auto devices = perf::DeviceSpec::shipped();
  const auto report = certify_space(configs, devices, options);
  const auto diff = differential_check(report, configs, 4);
  EXPECT_GE(diff.configs_sampled, 4u);
  EXPECT_GT(diff.replays, 0u);
  for (const auto& mismatch : diff.mismatches) {
    ADD_FAILURE() << mismatch.config << " on " << mismatch.device << ": "
                  << mismatch.detail;
  }
  EXPECT_TRUE(diff.clean());
}

TEST(Certify, DifferentialSamplesExactlyTheRequestedCount) {
  // 10 certified configs and 3 samples: configs 0, 3 and 6. A stride of
  // 10 / 3 = 3 would sample 4 (0, 3, 6, 9).
  CertifyOptions options;
  options.max_configs = 10;
  const auto& configs = gemm::enumerate_configs();
  const std::vector<perf::DeviceSpec> r9 = {perf::DeviceSpec::amd_r9_nano()};
  auto report = certify_space(configs, r9, options);
  const auto diff = differential_check(report, configs, 3);
  EXPECT_EQ(diff.configs_sampled, 3u);
  EXPECT_EQ(diff.replays, 3u * 6u);  // 5 corpus shapes + 1 batched each
  EXPECT_TRUE(diff.clean());
  // With no certificates every sampled config is a mismatch naming it.
  report.certificates.clear();
  std::vector<std::size_t> sampled;
  for (const auto& mismatch :
       differential_check(report, configs, 3).mismatches) {
    sampled.push_back(mismatch.config_index);
  }
  EXPECT_EQ(sampled, (std::vector<std::size_t>{0, 3, 6}));
}

TEST(Verdict, NamesRoundTrip) {
  for (const Verdict v : {Verdict::safe, Verdict::unsafe, Verdict::unknown}) {
    EXPECT_EQ(parse_verdict(to_string(v)), v);
  }
}

// --- JSON export ------------------------------------------------------------

TEST(ReportJson, EscapesControlCharacters) {
  EXPECT_EQ(check::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ReportJson, RendersCertifyReport) {
  CertifyOptions options;
  options.max_configs = 2;
  const auto report = certify_space(gemm::enumerate_configs(),
                                    perf::DeviceSpec::shipped(), options);
  const std::string json = check::to_json(report);
  EXPECT_NE(json.find("\"tool\": \"akscheck-certify\""), std::string::npos);
  EXPECT_NE(json.find("\"ruleId\": \"certified-safe\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"SAFE\""), std::string::npos);
  EXPECT_NE(json.find("\"shapePrecondition\": \"M >= 1"), std::string::npos);
  EXPECT_NE(json.find("\"safe\": 6"), std::string::npos);
}

TEST(ReportJson, RendersLintReport) {
  gemm::KernelConfig bad;
  bad.wg_rows = 48;
  bad.wg_cols = 48;
  const std::vector<gemm::KernelConfig> configs = {bad};
  const auto devices = perf::DeviceSpec::shipped();
  const auto report = check::lint_configs(configs, devices);
  const std::string json = check::to_json(report);
  EXPECT_NE(json.find("\"tool\": \"akscheck-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"ruleId\": \"work_group_size\""), std::string::npos);
  EXPECT_NE(json.find("\"level\": \"error\""), std::string::npos);
}

}  // namespace
