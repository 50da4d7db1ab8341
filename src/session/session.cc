/**
 * @file
 * Session facade implementation.
 */

#include "session/session.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "analyze/clifford.hh"
#include "assertions/report.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "runtime/batch.hh"

namespace qsa::session
{

namespace
{

/** Label prefix for on-demand boundary instrumentation. */
const std::string kBoundaryPrefix = "qsa_session_b";

} // anonymous namespace

// --- Expectation -----------------------------------------------------------

Expectation &
Expectation::alpha(double a)
{
    fatal_if(a <= 0.0 || a >= 1.0,
             "alpha must lie strictly between 0 and 1");
    owner->specs[index].alpha = a;
    owner->stale = true;
    return *this;
}

Expectation &
Expectation::ensembleSize(std::size_t size)
{
    owner->sizeOverrides[index] = size;
    owner->stale = true;
    return *this;
}

Expectation &
Expectation::named(const std::string &name)
{
    // A display name cannot change a verdict, so existing results are
    // patched in place instead of invalidating the plan (renaming
    // after an expensive run must not recompute every ensemble).
    owner->specs[index].name = name;
    if (index < owner->results.size())
        owner->results[index].spec.name = name;
    return *this;
}

const assertions::AssertionSpec &
Expectation::spec() const
{
    return owner->specs[index];
}

const assertions::AssertionOutcome &
Expectation::outcome()
{
    owner->ensureRun();
    return owner->results[index];
}

// --- Site ------------------------------------------------------------------

Expectation &
Site::expectClassical(const circuit::QubitRegister &reg,
                      std::uint64_t value)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Classical;
    spec.breakpoint = label;
    spec.regA = reg;
    spec.expectedValue = value;
    return owner->addExpectation(std::move(spec));
}

Expectation &
Site::expectSuperposition(const circuit::QubitRegister &reg)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Superposition;
    spec.breakpoint = label;
    spec.regA = reg;
    return owner->addExpectation(std::move(spec));
}

Expectation &
Site::expectDistribution(const circuit::QubitRegister &reg,
                         const std::vector<double> &probs)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Distribution;
    spec.breakpoint = label;
    spec.regA = reg;
    spec.expectedProbs = probs;
    return owner->addExpectation(std::move(spec));
}

Expectation &
Site::expectUniformSubset(const circuit::QubitRegister &reg,
                          const std::vector<std::uint64_t> &support)
{
    return expectDistribution(
        reg, assertions::uniformSubsetProbs(reg.width(), support));
}

Expectation &
Site::expectEntangled(const circuit::QubitRegister &reg_a,
                      const circuit::QubitRegister &reg_b)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Entangled;
    spec.breakpoint = label;
    spec.regA = reg_a;
    spec.regB = reg_b;
    return owner->addExpectation(std::move(spec));
}

Expectation &
Site::expectProduct(const circuit::QubitRegister &reg_a,
                    const circuit::QubitRegister &reg_b)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Product;
    spec.breakpoint = label;
    spec.regA = reg_a;
    spec.regB = reg_b;
    return owner->addExpectation(std::move(spec));
}

// --- Session ---------------------------------------------------------------

Session::Session(const circuit::Circuit &program,
                 const assertions::CheckConfig &config)
    : original(program), cfg(config)
{
    fatal_if(cfg.ensembleSize == 0, "ensemble size must be positive");
}

Session::~Session() = default;

Session &
Session::ensembleSize(std::size_t size)
{
    fatal_if(size == 0, "ensemble size must be positive");
    cfg.ensembleSize = size;
    return invalidate();
}

Session &
Session::mode(assertions::EnsembleMode m)
{
    cfg.mode = m;
    return invalidate();
}

Session &
Session::seed(std::uint64_t s)
{
    cfg.seed = s;
    return invalidate();
}

Session &
Session::threads(unsigned num_threads)
{
    cfg.numThreads = num_threads;
    return invalidate();
}

Session &
Session::gTest(bool enabled)
{
    cfg.useGTest = enabled;
    return invalidate();
}

Session &
Session::probes(locate::ProbeFamily family)
{
    probeFamily = family;
    // Localization state is rebuilt per locate() call; the assertion
    // plan is untouched, so no invalidation is needed.
    return *this;
}

Session &
Session::oracle(locate::OracleMode mode, std::size_t trials)
{
    oracleMode = mode;
    oracleTrials = trials;
    // As with probes(): locate() state is rebuilt per call, so the
    // assertion plan stays valid.
    return *this;
}

Session &
Session::use(const assertions::EscalationPolicy &policy)
{
    fatal_if(policy.initialSize == 0,
             "escalation needs a positive initial ensemble size");
    fatal_if(policy.maxSize < policy.initialSize,
             "escalation cap below the initial ensemble size");
    fatal_if(policy.passThreshold <= 0.0 || policy.passThreshold > 1.0,
             "escalation pass threshold must lie in (0, 1]");
    escalation = policy;
    stale = true;
    return *this;
}

Session &
Session::use(const HolmBonferroni &policy)
{
    familyWise = policy.enabled;
    stale = true;
    return *this;
}

Session &
Session::invalidate()
{
    checker.reset();
    runner.reset();
    stale = true;
    return *this;
}

Site
Session::at(const std::string &breakpoint)
{
    fatal_if(!original.hasBreakpoint(breakpoint),
             "program has no breakpoint labelled '", breakpoint, "'");
    return Site(*this, breakpoint);
}

Site
Session::after(std::size_t instructions)
{
    fatal_if(instructions > original.size(),
             "boundary ", instructions, " beyond the program's ",
             original.size(), " instructions");
    if (!wantBoundaries) {
        wantBoundaries = true;
        invalidate(); // resolved program changes shape
    }
    return Site(*this, boundaryLabel(instructions));
}

std::string
Session::boundaryLabel(std::size_t boundary)
{
    return kBoundaryPrefix + std::to_string(boundary);
}

Expectation &
Session::addExpectation(assertions::AssertionSpec spec)
{
    assertions::validateSpecShape(spec);
    specs.push_back(std::move(spec));
    sizeOverrides.push_back(0);
    handles.push_back(Expectation(*this, specs.size() - 1));
    stale = true;
    return handles.back();
}

void
Session::resolve()
{
    if (checker && resolvedWithBoundaries == wantBoundaries)
        return;
    resolved = wantBoundaries
                   ? original.withBoundaryBreakpoints(kBoundaryPrefix)
                   : original;
    resolvedWithBoundaries = wantBoundaries;
    checker =
        std::make_unique<assertions::AssertionChecker>(resolved, cfg);
    runner = std::make_unique<runtime::BatchRunner>(cfg.numThreads);
}

const circuit::Circuit &
Session::program()
{
    resolve();
    return resolved;
}

const std::vector<assertions::AssertionOutcome> &
Session::run()
{
    QSA_OBS_COUNTER("session.runs", 1);
    QSA_OBS_SPAN(span, "session.run");
    span.arg("assertions", specs.size());
    resolve();

    // The checker did not see the registrations, so default the
    // display names through the shared convention (keeping reports
    // identical between the two paths) and validate breakpoints
    // against the resolved program.
    std::vector<assertions::AssertionSpec> plan = specs;
    for (auto &spec : plan) {
        assertions::validateSpec(resolved, spec);
        if (spec.name.empty())
            spec.name = assertions::defaultSpecName(spec);
    }

    const bool any_override =
        std::any_of(sizeOverrides.begin(), sizeOverrides.end(),
                    [](std::size_t s) { return s != 0; });
    results = runner->checkAll(*checker, plan,
                               escalation ? &*escalation : nullptr,
                               any_override ? &sizeOverrides : nullptr);
    if (familyWise)
        assertions::applyHolmBonferroni(results);
    stale = false;
    return results;
}

void
Session::ensureRun()
{
    if (stale)
        run();
}

const std::vector<assertions::AssertionOutcome> &
Session::outcomes()
{
    ensureRun();
    return results;
}

std::string
Session::report()
{
    ensureRun();
    return assertions::renderReport(results);
}

std::string
Session::exportJson()
{
    ensureRun();
    json::Value session = json::Value::object();
    session.set("program_size", json::Value::integer(original.size()));
    session.set("num_qubits", json::Value::integer(original.numQubits()));
    session.set("ensemble_size", json::Value::integer(cfg.ensembleSize));
    session.set("mode",
                json::Value::string(runtime::ensembleModeName(cfg.mode)));
    session.set("seed", json::Value::integer(cfg.seed));
    session.set("holm_bonferroni", json::Value::boolean(familyWise));
    if (escalation) {
        json::Value policy = json::Value::object();
        policy.set("initial_size",
                   json::Value::integer(escalation->initialSize));
        policy.set("max_size", json::Value::integer(escalation->maxSize));
        policy.set("pass_threshold",
                   json::Value::number(escalation->passThreshold));
        session.set("escalation", std::move(policy));
    }
    json::Value records = json::Value::array();
    for (const assertions::AssertionOutcome &out : results)
        records.push(assertions::toJson(out));

    json::Value doc = json::Value::object();
    doc.set("session", std::move(session));
    doc.set("assertions", std::move(records));
    doc.set("metrics", obs::metricsObject());
    doc.set("all_passed",
            json::Value::boolean(assertions::allPassed(results)));
    return doc.dump();
}

void
Session::exportJson(const std::string &path)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open '", path, "' for writing");
    out << exportJson() << '\n';
    out.flush();
    fatal_if(!out, "failed writing JSON to '", path, "'");
}

bool
Session::allPassed()
{
    ensureRun();
    return assertions::allPassed(results);
}

std::string
staticVerdictName(StaticVerdict verdict)
{
    switch (verdict) {
      case StaticVerdict::Verified: return "verified";
      case StaticVerdict::Refuted: return "refuted";
      case StaticVerdict::Undecidable: return "undecidable";
    }
    panic("unknown static verdict");
}

std::size_t
AnalysisReport::count(StaticVerdict verdict) const
{
    std::size_t total = 0;
    for (const StaticCheck &c : checks) {
        if (c.verdict == verdict)
            ++total;
    }
    return total;
}

bool
AnalysisReport::clean() const
{
    return lint.count(analyze::Severity::Error) == 0 &&
           lint.count(analyze::Severity::Warning) == 0 &&
           count(StaticVerdict::Refuted) == 0;
}

std::string
AnalysisReport::render() const
{
    std::ostringstream os;
    os << lint.render();
    for (const StaticCheck &c : checks) {
        os << staticVerdictName(c.verdict) << " [static] '" << c.name
           << "' at '" << c.breakpoint << "'";
        if (!c.detail.empty())
            os << ": " << c.detail;
        os << "\n";
    }
    if (!checks.empty()) {
        os << checks.size() << " classical spec(s): "
           << count(StaticVerdict::Verified) << " verified, "
           << count(StaticVerdict::Refuted) << " refuted, "
           << count(StaticVerdict::Undecidable) << " undecidable\n";
    }
    return os.str();
}

AnalysisReport
Session::analyze()
{
    QSA_OBS_COUNTER("session.analyses", 1);
    QSA_OBS_SPAN(span, "session.analyze");
    resolve();

    AnalysisReport out;
    // Lint the *original* program: finding indices must address the
    // instructions the user wrote, not the session's boundary
    // markers.
    out.lint = analyze::lintCircuit(original);

    const analyze::CliffordSimulation sim(resolved);
    std::size_t discharged = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const assertions::AssertionSpec &spec = specs[i];
        if (spec.kind != assertions::AssertionKind::Classical)
            continue;

        StaticCheck check;
        check.specIndex = i;
        check.name = spec.name.empty()
                         ? assertions::defaultSpecName(spec)
                         : spec.name;
        check.breakpoint = spec.breakpoint;

        const std::size_t boundary =
            resolved.breakpointPosition(spec.breakpoint);
        if (!sim.decidableAt(boundary)) {
            check.verdict = StaticVerdict::Undecidable;
            check.detail = sim.topReason();
        } else {
            const locate::BoundaryPredicate pred =
                sim.predicateAt(boundary, spec.regA);
            if (pred.kind != assertions::AssertionKind::Classical) {
                check.verdict = StaticVerdict::Refuted;
                check.detail =
                    "register is " +
                    assertions::assertionKindName(pred.kind) +
                    " here, not classical";
                ++discharged;
            } else if (pred.expectedValue == spec.expectedValue) {
                check.verdict = StaticVerdict::Verified;
                check.detail = "register provably reads " +
                               std::to_string(pred.expectedValue);
                ++discharged;
            } else {
                check.verdict = StaticVerdict::Refuted;
                check.detail = "register provably reads " +
                               std::to_string(pred.expectedValue) +
                               ", not " +
                               std::to_string(spec.expectedValue);
                ++discharged;
            }
        }
        out.checks.push_back(std::move(check));
    }

    QSA_OBS_COUNTER("analyze.static_checks", out.checks.size());
    QSA_OBS_COUNTER("analyze.static_discharged", discharged);
    span.arg("diagnostics", out.lint.diagnostics.size())
        .arg("checks", out.checks.size())
        .arg("discharged", discharged);
    return out;
}

locate::LocateConfig
Session::locateConfig(locate::Strategy strategy) const
{
    locate::LocateConfig lc;
    lc.strategy = strategy;
    lc.family = probeFamily;
    lc.mode = cfg.mode; // Resimulate sessions probe past measurements
    lc.seed = cfg.seed;
    lc.numThreads = cfg.numThreads;
    lc.oracleMode = oracleMode;
    lc.oracleTrials = oracleTrials;
    if (escalation) {
        lc.ensembleSize = escalation->initialSize;
        lc.maxEnsembleSize = escalation->maxSize;
        lc.passThreshold = escalation->passThreshold;
    }
    return lc;
}

locate::LocalizationReport
Session::locate(const circuit::Circuit &reference,
                const locate::Scope &scope,
                locate::Strategy strategy) const
{
    // Localization probes the *original* program: boundary markers
    // from the session's own instrumentation would only dilute the
    // locator's boundary indexing.
    const locate::BugLocator locator(original, reference,
                                     locateConfig(strategy));
    return locator.locate(scope);
}

} // namespace qsa::session
