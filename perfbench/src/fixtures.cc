#include "fixtures.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

namespace perfbench
{

using namespace qsa;
using circuit::Circuit;
using circuit::Instruction;

namespace
{

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.kind == b.kind && a.controls == b.controls &&
           a.targets == b.targets && a.angle == b.angle &&
           a.bit == b.bit && a.matrixId == b.matrixId &&
           a.label == b.label && a.condLabel == b.condLabel &&
           a.condValue == b.condValue;
}

/** Table 1 flipped-rotation defect inside a decomposed adder. */
Pair
flippedAdder(const Variant &v)
{
    Pair pair;
    for (Circuit *circ : {&pair.suspect, &pair.reference}) {
        const bool buggy = circ == &pair.suspect;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto b = circ->addRegister("b", 5);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(b, v.b);
        pair.prepared = circ->size();
        algo::qft(*circ, b);
        bugs::phiAddDecomposed(
            *circ, b, 13, ctrl[0],
            buggy ? bugs::Table1Variant::IncorrectFlipped
                  : bugs::Table1Variant::CorrectDropA);
        algo::iqft(*circ, b);
    }
    return pair;
}

/** Section 4.4 misrouted control in a controlled modular multiplier. */
Pair
misrouted(const Variant &v)
{
    Pair pair;
    for (Circuit *circ : {&pair.suspect, &pair.reference}) {
        const bool buggy = circ == &pair.suspect;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto x = circ->addRegister("x", 3);
        const auto b = circ->addRegister("b", 4);
        const auto anc = circ->addRegister("anc", 1);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(x, v.x);
        circ->prepRegister(b, v.b);
        circ->prepRegister(anc, 0);
        pair.prepared = circ->size();
        circ->h(ctrl[0]);
        if (buggy)
            bugs::cModMulMisrouted(*circ, ctrl[0], x, b, 3, 7, anc[0]);
        else
            algo::cModMul(*circ, ctrl[0], x, b, 3, 7, anc[0]);
    }
    return pair;
}

/** Table 3 wrong modular inverse inside a controlled U_a (mod 7). */
Pair
wrongInverse(const Variant &v)
{
    const std::uint64_t inverse = *algo::modInverse(v.a, 7);
    const std::uint64_t wrong = inverse > 1 ? inverse - 1 : 2;
    Pair pair;
    for (Circuit *circ : {&pair.suspect, &pair.reference}) {
        const bool buggy = circ == &pair.suspect;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto x = circ->addRegister("x", 3);
        const auto b = circ->addRegister("b", 4);
        const auto anc = circ->addRegister("anc", 1);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(x, v.x);
        circ->prepRegister(b, 0);
        circ->prepRegister(anc, 0);
        pair.prepared = circ->size();
        circ->h(ctrl[0]);
        algo::cUa(*circ, ctrl[0], x, b, v.a, buggy ? wrong : inverse, 7,
                  anc[0]);
    }
    return pair;
}

/**
 * Measured teleportation; `zframe` selects the conditioned-Z-frame
 * defect (S instead of Z, a pure relative phase) over the broken verify
 * rotation after the Bell measurement.
 */
Pair
teleport(const Variant &v, bool zframe)
{
    Pair pair;
    for (Circuit *circ : {&pair.suspect, &pair.reference}) {
        const bool buggy = circ == &pair.suspect;
        const auto msg = circ->addRegister("msg", 1);
        const auto half = circ->addRegister("half", 1);
        const auto recv = circ->addRegister("recv", 1);
        circ->prepZ(msg[0], 0);
        circ->prepZ(half[0], 0);
        circ->prepZ(recv[0], 0);
        pair.prepared = circ->size();
        circ->ry(msg[0], v.theta);
        circ->rz(msg[0], v.phi);
        circ->h(half[0]);
        circ->cnot(half[0], recv[0]);
        circ->cnot(msg[0], half[0]);
        circ->h(msg[0]);
        circ->measureQubits({half[0]}, "m_x");
        circ->measureQubits({msg[0]}, "m_z");
        circ->x(recv[0]);
        circ->conditionLast("m_x", 1);
        if (zframe && buggy)
            circ->phase(recv[0], M_PI / 2);
        else
            circ->z(recv[0]);
        circ->conditionLast("m_z", 1);
        circ->rz(recv[0], -v.phi);
        circ->ry(recv[0], !zframe && buggy ? v.theta : -v.theta);
    }
    return pair;
}

/**
 * Qubit 0 recycled through 13 measurement rounds (8192 outcome
 * histories, past the exact oracle's branch cap) while qubit 1 carries
 * a prep defect: only the sampled oracle can derive the reference.
 */
Pair
wideMeasure()
{
    Pair pair;
    for (Circuit *circ : {&pair.suspect, &pair.reference}) {
        const bool buggy = circ == &pair.suspect;
        const auto work = circ->addRegister("work", 1);
        const auto carry = circ->addRegister("carry", 1);
        circ->h(work[0]);
        circ->measureQubits({work[0]}, "m_r0");
        if (buggy)
            circ->x(carry[0]);
        else
            circ->h(carry[0]);
        for (int round = 1; round < 13; ++round) {
            circ->h(work[0]);
            circ->measureQubits({work[0]},
                                "m_r" + std::to_string(round));
        }
    }
    return pair;
}

LocateSetup
setup(const char *name, assertions::EnsembleMode mode,
      locate::ProbeFamily family, const char *reg = "",
      locate::OracleMode oracle = locate::OracleMode::Auto)
{
    LocateSetup s;
    s.name = name;
    s.mode = mode;
    s.family = family;
    s.reg = reg;
    s.oracle = oracle;
    return s;
}

const char *
modeWireName(assertions::EnsembleMode mode)
{
    return mode == assertions::EnsembleMode::Resimulate
               ? "resimulate"
               : "sample_final_state";
}

/** The wire spells probe families with underscores. */
std::string
familyWireName(locate::ProbeFamily family)
{
    std::string name = locate::probeFamilyName(family);
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

json::Value
planItem(std::size_t after, const char *expect, const char *reg)
{
    json::Value item = json::Value::object();
    item.set("after", json::Value::integer(after));
    item.set("expect", json::Value::string(expect));
    item.set("register", json::Value::string(reg));
    return item;
}

json::Value
classicalItem(std::size_t after, const char *reg, std::uint64_t value)
{
    json::Value item = planItem(after, "classical", reg);
    item.set("value", json::Value::integer(value));
    return item;
}

/** A plan of facts that hold on the fixture's reference program. */
json::Value
checkPlan(const Variant &v, const Pair &pair)
{
    const std::size_t end = pair.reference.size();
    json::Value plan = json::Value::array();
    switch (v.fixture) {
      case 0:
        plan.push(classicalItem(pair.prepared, "b", v.b));
        plan.push(classicalItem(end, "ctrl", 1));
        break;
      case 1:
      case 2:
        plan.push(classicalItem(pair.prepared, "x", v.x));
        plan.push(classicalItem(end, "anc", 0));
        if (v.fixture == 2)
            plan.push(classicalItem(end, "b", 0));
        break;
      case 3:
      case 4:
        plan.push(classicalItem(pair.prepared, "msg", 0));
        plan.push(classicalItem(end, "recv", 0));
        break;
      default:
        plan.push(planItem(1, "superposition", "work"));
        break;
    }
    return plan;
}

/** The pair as the daemon sees it: both programs through QASM. */
Pair
throughQasm(const Pair &pair, std::string *suspect,
            std::string *reference)
{
    *suspect = circuit::toQasm(pair.suspect);
    *reference = circuit::toQasm(pair.reference);
    Pair parsed = pair;
    parsed.suspect = circuit::fromQasm(*suspect);
    parsed.reference = circuit::fromQasm(*reference);
    return parsed;
}

Variant
drawVariant(int fixture, Rng &rng)
{
    Variant v = canonicalVariant(fixture);
    switch (fixture) {
      case 0: v.b = rng.uniformInt(32); break;
      case 1:
        v.x = 1 + rng.uniformInt(6);
        v.b = rng.uniformInt(7);
        break;
      case 2:
        v.a = 2 + rng.uniformInt(5);
        v.x = 1 + rng.uniformInt(6);
        break;
      case 3:
      case 4:
        // Away from the poles, where the z-frame phase defect would be
        // too faint for a 64-shot swap test to see.
        v.theta = 1.0 + 1.1 * static_cast<double>(rng.uniformInt(16)) / 15;
        v.phi = 2.0 * M_PI * static_cast<double>(rng.uniformInt(16)) / 16;
        break;
      default: break;
    }
    return v;
}

} // anonymous namespace

bool
bracketHoldsDefect(const Pair &pair, std::size_t begin, std::size_t end)
{
    const auto &sus = pair.suspect.instructions();
    const auto &ref = pair.reference.instructions();
    for (std::size_t i = begin; i < end && i < sus.size(); ++i) {
        if (i >= ref.size() || !sameInstruction(sus[i], ref[i]))
            return true;
    }
    return false;
}

const char *
fixtureName(int fixture)
{
    static const char *const names[kNumFixtures] = {
        "flipped-adder",     "misrouted-control", "wrong-inverse",
        "measured-teleport", "zframe-teleport",   "wide-measure"};
    return names[fixture];
}

Variant
canonicalVariant(int fixture)
{
    Variant v;
    v.fixture = fixture;
    switch (fixture) {
      case 0: v.b = 12; break;
      case 1:
        v.x = 6;
        v.b = 5;
        break;
      case 2:
        v.x = 6;
        v.a = 3;
        break;
      default: break;
    }
    return v;
}

Pair
buildPair(const Variant &v)
{
    Pair pair;
    switch (v.fixture) {
      case 0: pair = flippedAdder(v); break;
      case 1: pair = misrouted(v); break;
      case 2: pair = wrongInverse(v); break;
      case 3: pair = teleport(v, false); break;
      case 4: pair = teleport(v, true); break;
      default: pair = wideMeasure(); break;
    }
    pair.fixture = fixtureName(v.fixture);
    return pair;
}

std::vector<LocateSetup>
setupsFor(int fixture)
{
    using assertions::EnsembleMode;
    using locate::ProbeFamily;
    switch (fixture) {
      case 0:
      case 1:
      case 2:
        return {setup("mirror-sampled", EnsembleMode::SampleFinalState,
                      ProbeFamily::SegmentMirror),
                setup("mirror-resim", EnsembleMode::Resimulate,
                      ProbeFamily::SegmentMirror)};
      case 3:
        return {setup("mirror-resim", EnsembleMode::Resimulate,
                      ProbeFamily::SegmentMirror)};
      case 4:
        return {setup("swap-recv", EnsembleMode::Resimulate,
                      ProbeFamily::SwapTest, "recv"),
                setup("rotated-recv", EnsembleMode::Resimulate,
                      ProbeFamily::RotatedMarginal, "recv"),
                setup("auto-recv", EnsembleMode::Resimulate,
                      ProbeFamily::Auto, "recv")};
      default:
        return {setup("sampled-oracle", EnsembleMode::Resimulate,
                      ProbeFamily::SegmentMirror, "",
                      locate::OracleMode::Sampled)};
    }
}

PaperPrograms
buildPaperPrograms()
{
    PaperPrograms p;
    algo::ShorConfig bad_config;
    bad_config.pairs = algo::shorClassicalInputs(7, 15, 3);
    bad_config.pairs[0].second = 12; // 7^-1 mod 15 is 13, not 12

    p.shorGood = algo::buildShorProgram(algo::ShorConfig());
    p.shor.fixture = "shor-wrong-inverse";
    p.shor.suspect = algo::buildShorProgram(bad_config).circuit;
    p.shor.reference = p.shorGood.circuit;

    p.semiBad = algo::buildSemiclassicalShorProgram(bad_config);
    p.semiclassical.fixture = "semiclassical-wrong-inverse";
    p.semiclassical.suspect = p.semiBad.circuit;
    p.semiclassical.reference =
        algo::buildSemiclassicalShorProgram(algo::ShorConfig()).circuit;

    algo::GroverConfig grover;
    grover.degree = 4;
    grover.target = 0b1011;
    p.grover = algo::buildGroverProgram(grover);

    // |0011> is the Hartree-Fock determinant of H2 / STO-3G.
    const chem::H2Model model = chem::buildH2Model(73.48);
    p.h2Sys = p.h2.addRegister("sys", 4);
    p.h2.prepRegister(p.h2Sys, 0b0011);
    p.h2Prepared = p.h2.size();
    chem::appendTrotterEvolution(p.h2, model.hamiltonian, 1.2, 4,
                                 {0, 1, 2, 3});
    p.h2Final = assertions::exactMarginal(
        p.h2.withBoundaryBreakpoints(
            "perfbench_b"),
        "perfbench_b" + std::to_string(p.h2.size()), p.h2Sys);
    return p;
}

json::Value
locateBody(const LocateSetup &s, std::uint64_t seed)
{
    json::Value doc = json::Value::object();
    doc.set("command", json::Value::string("locate"));
    if (!s.reg.empty())
        doc.set("register", json::Value::string(s.reg));
    doc.set("family", json::Value::string(familyWireName(s.family)));
    doc.set("oracle_mode",
            json::Value::string(locate::oracleModeName(s.oracle)));
    doc.set("mode", json::Value::string(modeWireName(s.mode)));
    doc.set("seed", json::Value::integer(seed));
    doc.set("ensemble_size", json::Value::integer(64));
    return doc;
}

std::string
renderRequest(json::Value body, const std::string &circuit,
              const std::string *reference)
{
    body.set("circuit", json::Value::string(circuit));
    if (reference != nullptr)
        body.set("reference", json::Value::string(*reference));
    return body.dump();
}

std::string
ServeMix::line(const ServeRequest &req) const
{
    const auto &[suspect, reference] = qasm[req.pair];
    return renderRequest(req.body, req.sendsSuspect ? suspect : reference,
                         req.command == "locate" ? &reference : nullptr);
}

std::string
ServeMix::key(const ServeRequest &req) const
{
    return std::to_string(req.pair) + (req.sendsSuspect ? "s" : "r") +
           req.body.dump();
}

ServeMix
generateServeMix(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    const std::uint64_t request_seeds[2] = {rng.next() >> 11,
                                            rng.next() >> 11};
    ServeMix mix;

    // Pairs by fixture, deduplicated on the variant so a redrawn
    // variant counts as a repeat.
    std::map<std::tuple<int, std::uint64_t, std::uint64_t, std::uint64_t,
                        double, double>,
             int>
        index;
    std::vector<std::vector<int>> by_fixture(kNumFixtures);
    std::vector<Variant> variants;
    const auto pick_pair = [&](int fixture) {
        if (!by_fixture[fixture].empty() && rng.bernoulli(0.5)) {
            const auto &seen = by_fixture[fixture];
            return seen[rng.uniformInt(seen.size())];
        }
        const Variant v = drawVariant(fixture, rng);
        const auto key =
            std::make_tuple(v.fixture, v.x, v.b, v.a, v.theta, v.phi);
        if (auto it = index.find(key); it != index.end())
            return it->second;
        std::string sus, ref;
        mix.pairs.push_back(throughQasm(buildPair(v), &sus, &ref));
        mix.qasm.emplace_back(std::move(sus), std::move(ref));
        variants.push_back(v);
        const int id = static_cast<int>(mix.pairs.size()) - 1;
        index.emplace(key, id);
        by_fixture[fixture].push_back(id);
        return id;
    };

    // One deck: every localization configuration, three plan checks
    // and one lint-or-analyze, in shuffled order.
    struct Card
    {
        int fixture;
        int setup; // -1: check, -2: lint / analyze
    };
    std::vector<Card> deck;
    for (int f = 0; f < kNumFixtures; ++f)
        for (std::size_t s = 0; s < setupsFor(f).size(); ++s)
            deck.push_back({f, static_cast<int>(s)});
    for (int i = 0; i < 3; ++i)
        deck.push_back({0, -1});
    deck.push_back({0, -2});

    while (mix.requests.size() < count) {
        for (std::size_t i = deck.size(); i > 1; --i)
            std::swap(deck[i - 1], deck[rng.uniformInt(i)]);
        for (const Card &card : deck) {
            if (mix.requests.size() == count)
                break;
            ServeRequest req;
            const std::uint64_t req_seed =
                request_seeds[rng.uniformInt(2)];
            json::Value doc = json::Value::object();
            if (card.setup >= 0) {
                const LocateSetup s = setupsFor(card.fixture)[card.setup];
                req.pair = pick_pair(card.fixture);
                req.command = "locate";
                req.config =
                    std::string(fixtureName(card.fixture)) + "/" + s.name;
                req.sendsSuspect = true;
                req.body = locateBody(s, req_seed);
                mix.requests.push_back(std::move(req));
                continue;
            }
            const int fixture =
                static_cast<int>(rng.uniformInt(kNumFixtures));
            req.pair = pick_pair(fixture);
            const Pair &pair = mix.pairs[req.pair];
            const Variant &v = variants[req.pair];
            if (card.setup == -1) {
                req.command = "check";
                req.config = std::string("check/") + fixtureName(fixture);
                doc.set("command", json::Value::string("check"));
                doc.set("plan", checkPlan(v, pair));
                doc.set("mode", json::Value::string(
                                    fixture >= 3 ? "resimulate"
                                                 : "sample_final_state"));
                doc.set("seed", json::Value::integer(req_seed));
                doc.set("ensemble_size", json::Value::integer(256));
            } else if (rng.bernoulli(0.5)) {
                req.command = "lint";
                doc.set("command", json::Value::string("lint"));
                req.sendsSuspect = true;
            } else {
                req.command = "analyze";
                doc.set("command", json::Value::string("analyze"));
                doc.set("plan", checkPlan(v, pair));
            }
            req.body = std::move(doc);
            mix.requests.push_back(std::move(req));
        }
    }
    return mix;
}

} // namespace perfbench
