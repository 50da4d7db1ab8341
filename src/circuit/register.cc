/**
 * @file
 * QubitRegister implementation.
 */

#include "circuit/register.hh"

#include <algorithm>

#include "common/logging.hh"

namespace qsa::circuit
{

QubitRegister::QubitRegister(std::string name,
                             std::vector<unsigned> qubits)
    : regName(std::move(name)), qubitList(std::move(qubits))
{
    fatal_if(qubitList.empty(), "register '", regName,
             "' needs at least one qubit");
}

unsigned
QubitRegister::qubit(unsigned i) const
{
    fatal_if(i >= width(), "register '", regName, "' index ", i,
             " out of range (width ", width(), ")");
    return qubitList[i];
}

QubitRegister
QubitRegister::slice(unsigned first, unsigned count,
                     const std::string &new_name) const
{
    fatal_if(first > width() || count > width() - first,
             "slice out of range on register '", regName, "'");
    std::vector<unsigned> sub(qubitList.begin() + first,
                              qubitList.begin() + first + count);
    return QubitRegister(new_name.empty() ? regName + "_slice" : new_name,
                         std::move(sub));
}

QubitRegister
QubitRegister::reversed(const std::string &new_name) const
{
    std::vector<unsigned> rev(qubitList.rbegin(), qubitList.rend());
    return QubitRegister(new_name.empty() ? regName + "_rev" : new_name,
                         std::move(rev));
}

} // namespace qsa::circuit
