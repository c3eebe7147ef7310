#include "netlist/netlist.hpp"

#include <cassert>
#include <queue>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace olfui {

std::string Netlist::unique_name(std::string_view base,
                                 std::unordered_map<std::string, std::uint32_t>& used) {
  std::string name(base);
  auto [it, inserted] = used.try_emplace(name, 0);
  if (inserted) return name;
  while (true) {
    std::string candidate = name + "__" + std::to_string(++it->second);
    if (!used.contains(candidate)) {
      used.emplace(candidate, 0);
      return candidate;
    }
  }
}

NetId Netlist::add_net(std::string_view name) {
  const NetId id = static_cast<NetId>(nets_.size());
  Net n;
  n.name = unique_name(name, net_names_);
  net_index_.emplace(n.name, id);
  nets_.push_back(std::move(n));
  return id;
}

CellId Netlist::add_cell(CellType type, std::string_view name, NetId out,
                         std::vector<NetId> ins) {
  assert(static_cast<int>(ins.size()) == num_inputs(type));
  assert((out == kInvalidId) == !has_output(type));
  const CellId id = static_cast<CellId>(cells_.size());
  Cell c;
  c.type = type;
  c.name = unique_name(name, cell_names_);
  c.out = out;
  c.ins = std::move(ins);
  cell_index_.emplace(c.name, id);
  if (out != kInvalidId) {
    assert(nets_[out].driver == kInvalidId && "net already driven");
    nets_[out].driver = id;
  }
  for (std::size_t i = 0; i < c.ins.size(); ++i) {
    if (c.ins[i] != kInvalidId)
      nets_[c.ins[i]].fanout.push_back({id, static_cast<std::uint8_t>(i + 1)});
  }
  cells_.push_back(std::move(c));
  return id;
}

NetId Netlist::add_input(std::string_view port_name) {
  const NetId net = add_net(port_name);
  const CellId cell = add_cell(CellType::kInput, port_name, net, {});
  input_cells_.push_back(cell);
  return net;
}

CellId Netlist::add_output(std::string_view port_name, NetId net) {
  const CellId cell = add_cell(CellType::kOutput, port_name, kInvalidId, {net});
  output_cells_.push_back(cell);
  return cell;
}

namespace {

/// Throws std::out_of_range unless `input_pin` indexes `c.ins`.
void check_input_pin(const Cell& c, int input_pin, const char* what) {
  if (input_pin < 0 || input_pin >= static_cast<int>(c.ins.size()))
    throw std::out_of_range(std::string(what) + ": cell '" + c.name +
                            "' has no input index " +
                            std::to_string(input_pin) + " (it has " +
                            std::to_string(c.ins.size()) + ")");
}

}  // namespace

void Netlist::connect_input(CellId cell, int input_pin, NetId net) {
  Cell& c = cells_[cell];
  check_input_pin(c, input_pin, "connect_input");
  assert(c.ins[input_pin] == kInvalidId && "pin already connected");
  c.ins[input_pin] = net;
  nets_[net].fanout.push_back({cell, static_cast<std::uint8_t>(input_pin + 1)});
}

void Netlist::rewire_input(CellId cell, int input_pin, NetId new_net) {
  Cell& c = cells_[cell];
  check_input_pin(c, input_pin, "rewire_input");
  const NetId old_net = c.ins[input_pin];
  if (old_net == new_net) return;
  if (old_net != kInvalidId) {
    auto& fo = nets_[old_net].fanout;
    const Pin p{cell, static_cast<std::uint8_t>(input_pin + 1)};
    for (std::size_t i = 0; i < fo.size(); ++i) {
      if (fo[i] == p) {
        fo[i] = fo.back();
        fo.pop_back();
        break;
      }
    }
  }
  c.ins[input_pin] = new_net;
  nets_[new_net].fanout.push_back({cell, static_cast<std::uint8_t>(input_pin + 1)});
}

NetId Netlist::pin_net(Pin p) const {
  const Cell& c = cells_[p.cell];
  return p.pin == 0 ? c.out : c.ins[p.pin - 1];
}

NetId Netlist::find_input(std::string_view port_name) const {
  for (CellId c : input_cells_)
    if (cells_[c].name == port_name) return cells_[c].out;
  return kInvalidId;
}

CellId Netlist::find_output(std::string_view port_name) const {
  for (CellId c : output_cells_)
    if (cells_[c].name == port_name) return c;
  return kInvalidId;
}

NetId Netlist::find_net(std::string_view name) const {
  auto it = net_index_.find(std::string(name));
  return it == net_index_.end() ? kInvalidId : it->second;
}

CellId Netlist::find_cell(std::string_view name) const {
  auto it = cell_index_.find(std::string(name));
  return it == cell_index_.end() ? kInvalidId : it->second;
}

std::vector<CellId> Netlist::flops() const {
  std::vector<CellId> out;
  for (CellId i = 0; i < cells_.size(); ++i)
    if (is_sequential(cells_[i].type)) out.push_back(i);
  return out;
}

bool Netlist::levelize(std::vector<CellId>& order) const {
  // Kahn's algorithm over combinational cells. Sources: nets driven by
  // kInput, ties and flop outputs.
  order.clear();
  std::vector<std::uint32_t> pending(cells_.size(), 0);
  std::queue<CellId> ready;
  std::size_t num_comb = 0;
  for (CellId id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    if (is_sequential(c.type) || is_tie(c.type) || c.type == CellType::kInput)
      continue;
    ++num_comb;
    std::uint32_t deps = 0;
    for (NetId in : c.ins) {
      if (in == kInvalidId) continue;
      const CellId drv = nets_[in].driver;
      if (drv == kInvalidId) continue;
      const CellType dt = cells_[drv].type;
      if (!is_sequential(dt) && !is_tie(dt) && dt != CellType::kInput) ++deps;
    }
    pending[id] = deps;
    if (deps == 0) ready.push(id);
  }
  while (!ready.empty()) {
    const CellId id = ready.front();
    ready.pop();
    order.push_back(id);
    const Cell& c = cells_[id];
    if (c.out == kInvalidId) continue;
    for (const Pin& p : nets_[c.out].fanout) {
      const Cell& sink = cells_[p.cell];
      if (is_sequential(sink.type) || is_tie(sink.type) ||
          sink.type == CellType::kInput)
        continue;
      if (--pending[p.cell] == 0) ready.push(p.cell);
    }
  }
  return order.size() == num_comb;
}

std::vector<std::string> Netlist::validate() const {
  std::vector<std::string> problems;
  for (NetId id = 0; id < nets_.size(); ++id) {
    if (nets_[id].driver == kInvalidId)
      problems.push_back(format("net '%s' has no driver", nets_[id].name.c_str()));
  }
  for (CellId id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    for (std::size_t i = 0; i < c.ins.size(); ++i) {
      if (c.ins[i] == kInvalidId)
        problems.push_back(format("cell '%s' pin %s unconnected", c.name.c_str(),
                                  std::string(pin_name(c.type, static_cast<int>(i) + 1)).c_str()));
    }
    if (c.out != kInvalidId && nets_[c.out].driver != id)
      problems.push_back(format("cell '%s' output driver mismatch", c.name.c_str()));
  }
  std::vector<CellId> order;
  if (!levelize(order)) problems.push_back("combinational loop detected");
  return problems;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  s.cells = cells_.size();
  s.nets = nets_.size();
  s.inputs = input_cells_.size();
  s.outputs = output_cells_.size();
  for (const Cell& c : cells_) {
    if (is_sequential(c.type))
      ++s.flops;
    else if (is_tie(c.type))
      ++s.ties;
    else if (!is_port(c.type))
      ++s.gates;
    s.pins += (has_output(c.type) ? 1u : 0u) + c.ins.size();
  }
  return s;
}

std::unordered_map<std::string, std::size_t> Netlist::module_histogram() const {
  std::unordered_map<std::string, std::size_t> hist;
  for (const Cell& c : cells_) {
    const auto slash = c.name.find('/');
    std::string key = slash == std::string::npos ? std::string("<top>")
                                                 : c.name.substr(0, slash);
    ++hist[key];
  }
  return hist;
}

}  // namespace olfui
