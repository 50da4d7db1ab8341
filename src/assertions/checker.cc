/**
 * @file
 * AssertionChecker implementation.
 */

#include "assertions/checker.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "circuit/scopes.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "runtime/batch.hh"
#include "runtime/ensemble.hh"
#include "stats/histogram.hh"

namespace qsa::assertions
{

namespace
{

/** Widest register a dense goodness-of-fit test accepts: its
 *  expected distribution holds 2^width entries. */
constexpr unsigned kMaxDenseWidth = 24;

constexpr const char *kTooWideForDenseFit =
    "register too wide for a dense goodness-of-fit test";

} // anonymous namespace

std::string
assertionKindName(AssertionKind kind)
{
    switch (kind) {
      case AssertionKind::Classical: return "classical";
      case AssertionKind::Superposition: return "superposition";
      case AssertionKind::Entangled: return "entangled";
      case AssertionKind::Product: return "product";
      case AssertionKind::Distribution: return "distribution";
    }
    panic("unknown assertion kind");
}

AssertionChecker::AssertionChecker(circuit::Circuit prog,
                                   const CheckConfig &cfg,
                                   runtime::EngineOptions options)
    : program(std::move(prog)), config(cfg)
{
    fatal_if(config.ensembleSize == 0,
             "ensemble size must be positive");
    // Created eagerly so concurrent check() calls (BatchRunner fans
    // them across a pool) never race on lazy initialisation.
    engine = std::make_unique<runtime::EnsembleEngine>(
        program, config.numThreads, std::move(options));
}

AssertionChecker::~AssertionChecker() = default;

void
AssertionChecker::clearRuntimeCache()
{
    engine->clearCache();
}

void
validateSpecShape(const AssertionSpec &spec)
{
    fatal_if(spec.regA.width() == 0, "assertion on an empty register");
    if (spec.kind == AssertionKind::Entangled ||
        spec.kind == AssertionKind::Product) {
        fatal_if(spec.regB.width() == 0,
                 "two-variable assertion needs a second register");
    }
    fatal_if(spec.alpha <= 0.0 || spec.alpha >= 1.0,
             "alpha must lie strictly between 0 and 1");
    if (spec.kind == AssertionKind::Classical ||
        spec.kind == AssertionKind::Superposition ||
        spec.kind == AssertionKind::Distribution) {
        fatal_if(spec.regA.width() > kMaxDenseWidth, kTooWideForDenseFit);
    }
    if (spec.kind == AssertionKind::Classical) {
        // Rejecting here (instead of panicking later inside
        // stats::pointMassExpected mid-check) matches the
        // assertUniformSubset error path.
        fatal_if(spec.expectedValue >= pow2(spec.regA.width()),
                 "classical expected value ", spec.expectedValue,
                 " outside the register domain of ",
                 pow2(spec.regA.width()), " values");
    }
    if (spec.kind == AssertionKind::Distribution) {
        fatal_if(spec.expectedProbs.size() != pow2(spec.regA.width()),
                 "expected distribution must have 2^width entries");
        double total = 0.0;
        for (double p : spec.expectedProbs) {
            fatal_if(!std::isfinite(p),
                     "non-finite probability in distribution");
            fatal_if(p < 0.0, "negative probability in distribution");
            total += p;
        }
        fatal_if(std::abs(total - 1.0) > 1e-6,
                 "expected distribution must sum to 1, got ", total);
        if (!spec.referenceCounts.empty()) {
            fatal_if(spec.referenceCounts.size() !=
                         pow2(spec.regA.width()),
                     "reference counts must have 2^width entries");
            double count_total = 0.0;
            for (double c : spec.referenceCounts) {
                fatal_if(!std::isfinite(c),
                         "non-finite reference count");
                fatal_if(c < 0.0, "negative reference count");
                count_total += c;
            }
            fatal_if(count_total <= 0.0,
                     "reference counts must have a positive total");
        }
    }
}

void
validateSpec(const circuit::Circuit &program, const AssertionSpec &spec)
{
    fatal_if(!program.hasBreakpoint(spec.breakpoint),
             "program has no breakpoint labelled '", spec.breakpoint,
             "'");
    validateSpecShape(spec);
}

void
AssertionChecker::validateSpec(const AssertionSpec &spec) const
{
    assertions::validateSpec(program, spec);
}

std::vector<double>
uniformSubsetProbs(unsigned width,
                   const std::vector<std::uint64_t> &support)
{
    // Before the 2^width allocation, which validateSpecShape would
    // only reject afterwards.
    fatal_if(width > kMaxDenseWidth, kTooWideForDenseFit);
    fatal_if(support.empty(), "support set must be non-empty");
    std::vector<double> probs(pow2(width), 0.0);
    for (std::uint64_t v : support) {
        fatal_if(v >= probs.size(), "support value ", v,
                 " outside the register domain");
        probs[v] = 1.0 / support.size();
    }
    return probs;
}

std::string
defaultSpecName(const AssertionSpec &spec)
{
    return assertionKindName(spec.kind) + "@" + spec.breakpoint;
}

void
AssertionChecker::addAssertion(const AssertionSpec &spec)
{
    validateSpec(spec);
    specs.push_back(spec);
    if (specs.back().name.empty())
        specs.back().name = defaultSpecName(spec);
}

void
AssertionChecker::assertClassical(const std::string &breakpoint,
                                  const circuit::QubitRegister &reg,
                                  std::uint64_t value, double alpha)
{
    AssertionSpec spec;
    spec.kind = AssertionKind::Classical;
    spec.breakpoint = breakpoint;
    spec.regA = reg;
    spec.expectedValue = value;
    spec.alpha = alpha;
    addAssertion(spec);
}

void
AssertionChecker::assertSuperposition(const std::string &breakpoint,
                                      const circuit::QubitRegister &reg,
                                      double alpha)
{
    AssertionSpec spec;
    spec.kind = AssertionKind::Superposition;
    spec.breakpoint = breakpoint;
    spec.regA = reg;
    spec.alpha = alpha;
    addAssertion(spec);
}

void
AssertionChecker::assertDistribution(const std::string &breakpoint,
                                     const circuit::QubitRegister &reg,
                                     const std::vector<double> &probs,
                                     double alpha)
{
    AssertionSpec spec;
    spec.kind = AssertionKind::Distribution;
    spec.breakpoint = breakpoint;
    spec.regA = reg;
    spec.expectedProbs = probs;
    spec.alpha = alpha;
    addAssertion(spec);
}

void
AssertionChecker::assertUniformSubset(
    const std::string &breakpoint, const circuit::QubitRegister &reg,
    const std::vector<std::uint64_t> &support, double alpha)
{
    assertDistribution(breakpoint, reg,
                       uniformSubsetProbs(reg.width(), support),
                       alpha);
}

void
AssertionChecker::assertEntangled(const std::string &breakpoint,
                                  const circuit::QubitRegister &reg_a,
                                  const circuit::QubitRegister &reg_b,
                                  double alpha)
{
    AssertionSpec spec;
    spec.kind = AssertionKind::Entangled;
    spec.breakpoint = breakpoint;
    spec.regA = reg_a;
    spec.regB = reg_b;
    spec.alpha = alpha;
    addAssertion(spec);
}

void
AssertionChecker::assertProduct(const std::string &breakpoint,
                                const circuit::QubitRegister &reg_a,
                                const circuit::QubitRegister &reg_b,
                                double alpha)
{
    AssertionSpec spec;
    spec.kind = AssertionKind::Product;
    spec.breakpoint = breakpoint;
    spec.regA = reg_a;
    spec.regB = reg_b;
    spec.alpha = alpha;
    addAssertion(spec);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
AssertionChecker::gatherEnsemble(const AssertionSpec &spec) const
{
    return valuePairs(spec,
                      engine->gather(request(spec, config.ensembleSize)));
}

runtime::EnsembleSpec
AssertionChecker::request(const AssertionSpec &spec,
                          std::size_t ensemble_size) const
{
    // Joint measurement qubit list: regA bits first, then regB.
    runtime::EnsembleSpec request;
    request.breakpoint = spec.breakpoint;
    request.qubits = spec.regA.qubits();
    if (spec.kind == AssertionKind::Entangled ||
        spec.kind == AssertionKind::Product) {
        request.qubits.insert(request.qubits.end(),
                              spec.regB.qubits().begin(),
                              spec.regB.qubits().end());
    }
    request.shots = ensemble_size;
    request.mode = config.mode;
    request.seed = config.seed;
    return request;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
AssertionChecker::valuePairs(const AssertionSpec &spec,
                             const std::vector<std::uint64_t> &joint_values)
{
    const bool two_vars = spec.kind == AssertionKind::Entangled ||
                          spec.kind == AssertionKind::Product;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    pairs.reserve(joint_values.size());
    for (std::uint64_t joint : joint_values) {
        const std::uint64_t a = joint & lowMask(spec.regA.width());
        const std::uint64_t b = two_vars
                                    ? (joint >> spec.regA.width()) &
                                          lowMask(spec.regB.width())
                                    : 0;
        pairs.emplace_back(a, b);
    }
    return pairs;
}

AssertionOutcome
AssertionChecker::check(const AssertionSpec &spec) const
{
    return checkWithSize({&spec}, config.ensembleSize).front();
}

AssertionOutcome
AssertionChecker::check(const AssertionSpec &spec,
                        std::size_t ensemble_size) const
{
    return checkWithSize({&spec}, ensemble_size).front();
}

AssertionOutcome
AssertionChecker::checkEscalated(const AssertionSpec &spec,
                                 const EscalationPolicy &policy) const
{
    return checkEscalated(std::vector<AssertionSpec>{spec}, policy).front();
}

std::vector<AssertionOutcome>
AssertionChecker::checkEscalated(const std::vector<AssertionSpec> &specs,
                                 const EscalationPolicy &policy) const
{
    fatal_if(policy.initialSize == 0,
             "escalation needs a positive initial ensemble size");
    fatal_if(policy.maxSize < policy.initialSize,
             "escalation cap below the initial ensemble size");

    // Every open spec is at the same size in each round: all start at
    // initialSize and double together until final.
    std::vector<AssertionOutcome> outcomes(specs.size());
    std::vector<std::size_t> open(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        open[i] = i;
    for (std::size_t size = policy.initialSize; !open.empty();
         size = std::min(policy.maxSize, size * 2)) {
        std::vector<const AssertionSpec *> round;
        round.reserve(open.size());
        for (const std::size_t i : open)
            round.push_back(&specs[i]);
        auto results = checkWithSize(round, size);
        std::vector<std::size_t> inconclusive;
        for (std::size_t r = 0; r < open.size(); ++r) {
            const AssertionSpec &spec = specs[open[r]];
            if (escalationInconclusive(policy, spec.kind, spec.alpha,
                                       results[r].pValue) &&
                size < policy.maxSize) {
                QSA_OBS_COUNTER("assertions.escalations", 1);
                inconclusive.push_back(open[r]);
            }
            outcomes[open[r]] = std::move(results[r]);
        }
        open = std::move(inconclusive);
    }
    return outcomes;
}

std::vector<AssertionOutcome>
AssertionChecker::checkWithSize(const std::vector<const AssertionSpec *> &specs,
                                std::size_t ensemble_size) const
{
    std::vector<runtime::EnsembleSpec> requests;
    requests.reserve(specs.size());
    for (const AssertionSpec *spec : specs) {
        validateSpec(*spec);
        requests.push_back(request(*spec, ensemble_size));
    }
    fatal_if(ensemble_size == 0, "ensemble size must be positive");

    QSA_OBS_COUNTER("assertions.checks", specs.size());
    const auto joint_values = engine->gather(requests);
    std::vector<AssertionOutcome> outcomes;
    outcomes.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        outcomes.push_back(adjudicate(
            *specs[i], ensemble_size, valuePairs(*specs[i], joint_values[i])));
    }
    return outcomes;
}

AssertionOutcome
AssertionChecker::adjudicate(
    const AssertionSpec &spec, std::size_t ensemble_size,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> &pairs) const
{
    // Counting the shots and the chi-square (or G) test.
    QSA_OBS_SPAN(span, "assertions.adjudicate");
    AssertionOutcome out;
    out.spec = spec;
    out.ensembleSize = ensemble_size;
    out.effectiveAlpha = spec.alpha;

    std::vector<std::uint64_t> values_a;
    values_a.reserve(pairs.size());
    for (const auto &[a, b] : pairs) {
        values_a.push_back(a);
        ++out.countsA[a];
        if (spec.kind == AssertionKind::Entangled ||
            spec.kind == AssertionKind::Product)
            ++out.jointCounts[{a, b}];
    }

    switch (spec.kind) {
      case AssertionKind::Classical:
      case AssertionKind::Superposition:
      case AssertionKind::Distribution: {
        const std::uint64_t domain = pow2(spec.regA.width());
        const auto observed = stats::denseCounts(values_a, domain);

        // Sampled-reference distributions get the two-sample test:
        // the reference side is itself a finite sample (see
        // AssertionSpec::referenceCounts), so both samples' noise
        // must enter the statistic. The totals were sized
        // independently, hence constraints = 0. (The G-test ablation
        // covers only one-sample fits; two-sample always uses the
        // chi-square form.)
        if (spec.kind == AssertionKind::Distribution &&
            !spec.referenceCounts.empty()) {
            const auto res = stats::chiSquareTwoSample(
                observed, spec.referenceCounts, 0);
            out.pValue = res.pValue;
            out.statistic = res.statistic;
            out.df = res.df;
            out.impossibleOutcome = res.impossibleOutcome;
            out.passed = res.pValue > spec.alpha;
            break;
        }

        std::vector<double> expected;
        if (spec.kind == AssertionKind::Classical) {
            expected = stats::pointMassExpected(
                domain, spec.expectedValue, (double)pairs.size());
        } else if (spec.kind == AssertionKind::Superposition) {
            expected =
                stats::uniformExpected(domain, (double)pairs.size());
        } else {
            expected.resize(domain);
            for (std::uint64_t v = 0; v < domain; ++v)
                expected[v] = spec.expectedProbs[v] * pairs.size();
        }
        const auto res = config.useGTest
                             ? stats::gTestGof(observed, expected)
                             : stats::chiSquareGof(observed, expected);
        out.pValue = res.pValue;
        out.statistic = res.statistic;
        out.df = res.df;
        out.impossibleOutcome = res.impossibleOutcome;
        out.passed = res.pValue > spec.alpha;
        break;
      }
      case AssertionKind::Entangled:
      case AssertionKind::Product: {
        const auto table = stats::ContingencyTable::fromPairs(pairs);
        const auto res =
            config.useGTest
                ? stats::independenceGTest(table)
                : stats::independenceTest(table, config.yatesFor2x2);
        out.pValue = res.pValue;
        out.statistic = res.statistic;
        out.df = res.df;
        out.cramersV = res.cramersV;
        out.contingencyC = res.contingencyC;
        // Entangled: expect to *reject* independence. Product: expect
        // to fail to reject.
        if (spec.kind == AssertionKind::Entangled)
            out.passed = res.pValue <= spec.alpha;
        else
            out.passed = res.pValue > spec.alpha;
        break;
      }
    }
    return out;
}

std::vector<AssertionOutcome>
AssertionChecker::checkAll() const
{
    // Fan the registered (truncation, assertion) pairs across the
    // runtime pool — the shared plan-execution path of BatchRunner
    // and session::Session::run. Every check depends only on (spec,
    // config, seed), so the outcomes are bit-identical to a serial
    // per-spec loop (tested in test_runtime.cc). The runner is built
    // once (call_once: checkAll is const and may race) so dedicated
    // pools are not respawned per call.
    std::call_once(runnerOnce, [&] {
        runner = std::make_unique<runtime::BatchRunner>(
            config.numThreads);
    });
    auto outcomes = runner->checkAll(*this, specs);
    if (config.holmBonferroni)
        applyHolmBonferroni(outcomes);
    return outcomes;
}

std::size_t
applyHolmBonferroni(std::vector<AssertionOutcome> &outcomes)
{
    const std::size_t m = outcomes.size();
    if (m == 0)
        return 0;

    std::vector<std::size_t> order(m);
    for (std::size_t i = 0; i < m; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (outcomes[a].pValue != outcomes[b].pValue)
                      return outcomes[a].pValue < outcomes[b].pValue;
                  return a < b; // stable adjudication on ties
              });

    // Step down: rank i (0-based, smallest p first) tests against
    // alpha / (m - i); the first non-rejection retains every later
    // hypothesis as well.
    std::size_t rejections = 0;
    bool stopped = false;
    for (std::size_t i = 0; i < m; ++i) {
        AssertionOutcome &out = outcomes[order[i]];
        const double threshold = out.spec.alpha / (m - i);
        out.effectiveAlpha = threshold;
        const bool rejected = !stopped && out.pValue <= threshold;
        if (rejected)
            ++rejections;
        else
            stopped = true;
        if (out.spec.kind == AssertionKind::Entangled)
            out.passed = rejected;
        else
            out.passed = !rejected;
    }
    return rejections;
}

std::size_t
autoPlaceScopeAssertions(AssertionChecker &checker,
                         const circuit::Circuit &circ,
                         const circuit::QubitRegister &reg_a,
                         const circuit::QubitRegister &reg_b,
                         double alpha, bool family_wise)
{
    std::size_t placed = 0;
    for (const auto &pair : circuit::scopeBreakpointPairs(circ)) {
        checker.assertEntangled(pair.computed, reg_a, reg_b, alpha);
        checker.assertProduct(pair.uncomputed, reg_a, reg_b, alpha);
        placed += 2;
    }
    if (family_wise && placed > 0)
        checker.setHolmBonferroni(true);
    return placed;
}

} // namespace qsa::assertions
