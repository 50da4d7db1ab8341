#include "session/plan.hh"

#include "common/errors.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "session/session.hh"

namespace qsa::session
{

namespace
{

bool kindFromName(const std::string &name, PlanKind *kind)
{
    if (name == "classical")
        *kind = PlanKind::Classical;
    else if (name == "superposition")
        *kind = PlanKind::Superposition;
    else if (name == "distribution")
        *kind = PlanKind::Distribution;
    else if (name == "uniform_subset")
        *kind = PlanKind::UniformSubset;
    else if (name == "entangled")
        *kind = PlanKind::Entangled;
    else if (name == "product")
        *kind = PlanKind::Product;
    else
        return false;
    return true;
}

bool needsRegB(PlanKind kind)
{
    return kind == PlanKind::Entangled || kind == PlanKind::Product;
}

/** Schema-parse one plan object (no program knowledge yet). */
PlanAssertion parseItem(const json::Value &obj)
{
    fatal_if(!obj.isObject(), "expected an object");

    static const char *const kKnown[] = {
        "at",    "after", "expect",  "register",      "register_b",
        "value", "probs", "support", "alpha",         "name",
        "ensemble_size"};
    for (const auto &member : obj.members())
    {
        bool known = false;
        for (const char *k : kKnown)
            known = known || member.first == k;
        fatal_if(!known, "unknown field '", member.first, "'");
    }

    PlanAssertion item;
    const json::Value *at = obj.find("at");
    const json::Value *after = obj.find("after");
    fatal_if((at != nullptr) == (after != nullptr),
             "exactly one of 'at' / 'after' is required");
    if (at != nullptr)
    {
        item.atBoundary = false;
        item.breakpoint = at->asString();
    }
    else
    {
        item.atBoundary = true;
        item.boundary = after->asUint64();
    }

    const json::Value *expect = obj.find("expect");
    fatal_if(expect == nullptr ||
                 !kindFromName(expect->asString(), &item.kind),
             "'expect' must be one of classical / superposition / "
             "distribution / uniform_subset / entangled / product");

    const json::Value *reg = obj.find("register");
    fatal_if(reg == nullptr, "'register' is required");
    item.regA = reg->asString();

    const json::Value *reg_b = obj.find("register_b");
    if (needsRegB(item.kind) != (reg_b != nullptr))
    {
        fatal(needsRegB(item.kind)
                  ? "'register_b' is required for " +
                        planKindName(item.kind)
                  : "'register_b' is only valid for entangled / "
                    "product");
    }
    if (reg_b != nullptr)
        item.regB = reg_b->asString();

    const json::Value *value = obj.find("value");
    fatal_if((item.kind == PlanKind::Classical) != (value != nullptr),
             "'value' is required for (and only for) classical");
    if (value != nullptr)
        item.expectedValue = value->asUint64();

    const json::Value *probs = obj.find("probs");
    fatal_if((item.kind == PlanKind::Distribution) != (probs != nullptr),
             "'probs' is required for (and only for) distribution");
    if (probs != nullptr)
    {
        fatal_if(!probs->isArray(), "'probs' must be an array");
        for (std::size_t p = 0; p < probs->size(); ++p)
            item.probs.push_back(probs->at(p).asDouble());
    }

    const json::Value *support = obj.find("support");
    fatal_if((item.kind == PlanKind::UniformSubset) !=
                 (support != nullptr),
             "'support' is required for (and only for) "
             "uniform_subset");
    if (support != nullptr)
    {
        fatal_if(!support->isArray(), "'support' must be an array");
        for (std::size_t v = 0; v < support->size(); ++v)
            item.support.push_back(support->at(v).asUint64());
    }

    if (const json::Value *alpha = obj.find("alpha"))
        item.alpha = alpha->asDouble();
    if (const json::Value *name = obj.find("name"))
        item.name = name->asString();
    if (const json::Value *size = obj.find("ensemble_size"))
        item.ensembleSize = size->asUint64();
    return item;
}

} // namespace

std::string planKindName(PlanKind kind)
{
    switch (kind)
    {
    case PlanKind::Classical:
        return "classical";
    case PlanKind::Superposition:
        return "superposition";
    case PlanKind::Distribution:
        return "distribution";
    case PlanKind::UniformSubset:
        return "uniform_subset";
    case PlanKind::Entangled:
        return "entangled";
    case PlanKind::Product:
        return "product";
    }
    panic("unknown plan kind");
}

std::vector<PlanAssertion> planFromValue(const json::Value &array)
{
    fatal_if(!array.isArray(), "plan must be a JSON array");
    std::vector<PlanAssertion> plan;
    for (std::size_t i = 0; i < array.size(); ++i)
    {
        try
        {
            plan.push_back(parseItem(array.at(i)));
        }
        catch (const Error &e)
        {
            fatal("plan[", i, "]: ", e.what());
        }
    }
    return plan;
}

Expectation &Session::expect(const PlanAssertion &item)
{
    Site site = item.atBoundary ? after(item.boundary)
                                : at(item.breakpoint);
    const circuit::QubitRegister reg_a = original.reg(item.regA);

    Expectation *handle = nullptr;
    switch (item.kind)
    {
    case PlanKind::Classical:
        handle = &site.expectClassical(reg_a, item.expectedValue);
        break;
    case PlanKind::Superposition:
        handle = &site.expectSuperposition(reg_a);
        break;
    case PlanKind::Distribution:
        handle = &site.expectDistribution(reg_a, item.probs);
        break;
    case PlanKind::UniformSubset:
        handle = &site.expectUniformSubset(reg_a, item.support);
        break;
    case PlanKind::Entangled:
        handle = &site.expectEntangled(reg_a,
                                       original.reg(item.regB));
        break;
    case PlanKind::Product:
        handle = &site.expectProduct(reg_a,
                                     original.reg(item.regB));
        break;
    }

    if (item.alpha != 0.0)
        handle->alpha(item.alpha);
    if (!item.name.empty())
        handle->named(item.name);
    if (item.ensembleSize != 0)
        handle->ensembleSize(item.ensembleSize);
    return *handle;
}

} // namespace qsa::session
