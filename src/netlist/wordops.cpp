#include "netlist/wordops.hpp"

#include <cassert>

#include "util/strings.hpp"

namespace olfui {

WordOps::WordOps(Netlist& nl, std::string prefix)
    : nl_(&nl), prefix_(std::move(prefix)) {}

std::string WordOps::name(std::string_view base) const {
  return prefix_.empty() ? std::string(base) : prefix_ + "/" + std::string(base);
}

std::string WordOps::bit_name(std::string_view base, std::size_t i) const {
  // Unprefixed: callers pass the result to gate(), which applies the prefix.
  return std::string(base) + "_" + std::to_string(i);
}

NetId WordOps::lit(bool v) {
  NetId& cache = v ? tie1_ : tie0_;
  if (cache == kInvalidId) {
    cache = nl_->add_net(name(v ? "tie1" : "tie0"));
    nl_->add_cell(v ? CellType::kTie1 : CellType::kTie0,
                  name(v ? "u_tie1" : "u_tie0"), cache, {});
  }
  return cache;
}

Bus WordOps::constant(std::uint64_t value, int width) {
  Bus out(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) out[i] = lit((value >> i) & 1);
  return out;
}

NetId WordOps::gate(CellType t, std::string_view gname, const std::vector<NetId>& ins) {
  const NetId out = nl_->add_net(name(gname));
  nl_->add_cell(t, name("u_" + std::string(gname)), out, ins);
  return out;
}

Bus WordOps::not_word(const Bus& a, std::string_view n) {
  Bus out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = not_(a[i], bit_name(n, i));
  return out;
}

Bus WordOps::and_word(const Bus& a, const Bus& b, std::string_view n) {
  assert(a.size() == b.size());
  Bus out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = and2(a[i], b[i], bit_name(n, i));
  return out;
}

Bus WordOps::or_word(const Bus& a, const Bus& b, std::string_view n) {
  assert(a.size() == b.size());
  Bus out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = or2(a[i], b[i], bit_name(n, i));
  return out;
}

Bus WordOps::xor_word(const Bus& a, const Bus& b, std::string_view n) {
  assert(a.size() == b.size());
  Bus out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = xor2(a[i], b[i], bit_name(n, i));
  return out;
}

Bus WordOps::mux_word(NetId s, const Bus& a, const Bus& b, std::string_view n) {
  assert(a.size() == b.size());
  Bus out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = mux(s, a[i], b[i], bit_name(n, i));
  return out;
}

WordOps::AddResult WordOps::add_word(const Bus& a, const Bus& b, NetId cin,
                                     std::string_view n) {
  assert(a.size() == b.size());
  AddResult r;
  r.sum.resize(a.size());
  NetId carry = cin;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Full adder: sum = a^b^c; carry = a&b | c&(a^b).
    const NetId axb = xor2(a[i], b[i], bit_name(std::string(n) + "_axb", i));
    r.sum[i] = xor2(axb, carry, bit_name(std::string(n) + "_sum", i));
    const NetId ab = and2(a[i], b[i], bit_name(std::string(n) + "_ab", i));
    const NetId cx = and2(carry, axb, bit_name(std::string(n) + "_cx", i));
    carry = or2(ab, cx, bit_name(std::string(n) + "_co", i));
  }
  r.carry_out = carry;
  return r;
}

WordOps::AddResult WordOps::sub_word(const Bus& a, const Bus& b, std::string_view n) {
  const Bus nb = not_word(b, std::string(n) + "_nb");
  return add_word(a, nb, lit(true), n);
}

NetId WordOps::reduce_and(std::vector<NetId> nets, std::string_view n) {
  assert(!nets.empty());
  int round = 0;
  while (nets.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i < nets.size(); i += 4) {
      const std::size_t take = std::min<std::size_t>(4, nets.size() - i);
      const std::string gn =
          std::string(n) + "_r" + std::to_string(round) + "_" + std::to_string(i / 4);
      if (take == 1) {
        next.push_back(nets[i]);
      } else {
        const CellType t = take == 2   ? CellType::kAnd2
                           : take == 3 ? CellType::kAnd3
                                       : CellType::kAnd4;
        next.push_back(gate(t, gn, {nets.begin() + static_cast<long>(i),
                                    nets.begin() + static_cast<long>(i + take)}));
      }
    }
    nets = std::move(next);
    ++round;
  }
  return nets[0];
}

NetId WordOps::reduce_or(std::vector<NetId> nets, std::string_view n) {
  assert(!nets.empty());
  int round = 0;
  while (nets.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i < nets.size(); i += 4) {
      const std::size_t take = std::min<std::size_t>(4, nets.size() - i);
      const std::string gn =
          std::string(n) + "_r" + std::to_string(round) + "_" + std::to_string(i / 4);
      if (take == 1) {
        next.push_back(nets[i]);
      } else {
        const CellType t = take == 2   ? CellType::kOr2
                           : take == 3 ? CellType::kOr3
                                       : CellType::kOr4;
        next.push_back(gate(t, gn, {nets.begin() + static_cast<long>(i),
                                    nets.begin() + static_cast<long>(i + take)}));
      }
    }
    nets = std::move(next);
    ++round;
  }
  return nets[0];
}

NetId WordOps::eq_word(const Bus& a, const Bus& b, std::string_view n) {
  assert(a.size() == b.size());
  std::vector<NetId> bits(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    bits[i] = xnor2(a[i], b[i], bit_name(std::string(n) + "_xn", i));
  return reduce_and(std::move(bits), std::string(n) + "_all");
}

NetId WordOps::eq_const(const Bus& a, std::uint64_t value, std::string_view n) {
  std::vector<NetId> bits(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits[i] = ((value >> i) & 1) ? a[i]
                                 : not_(a[i], bit_name(std::string(n) + "_inv", i));
  }
  return reduce_and(std::move(bits), std::string(n) + "_all");
}

Bus WordOps::decode(const Bus& sel, std::string_view n) {
  const std::size_t count = 1ULL << sel.size();
  // Precompute inverted selects once.
  Bus inv(sel.size());
  for (std::size_t i = 0; i < sel.size(); ++i)
    inv[i] = not_(sel[i], bit_name(std::string(n) + "_ninv", i));
  Bus out(count);
  for (std::size_t v = 0; v < count; ++v) {
    std::vector<NetId> terms(sel.size());
    for (std::size_t i = 0; i < sel.size(); ++i)
      terms[i] = ((v >> i) & 1) ? sel[i] : inv[i];
    out[v] = terms.size() == 1
                 ? terms[0]
                 : reduce_and(std::move(terms),
                              std::string(n) + "_d" + std::to_string(v));
  }
  return out;
}

Bus WordOps::onehot_mux(const Bus& onehot, const std::vector<Bus>& words,
                        std::string_view n) {
  assert(onehot.size() == words.size());
  assert(!words.empty());
  const std::size_t width = words[0].size();
  Bus out(width);
  for (std::size_t bit = 0; bit < width; ++bit) {
    std::vector<NetId> terms(words.size());
    for (std::size_t w = 0; w < words.size(); ++w) {
      terms[w] = and2(onehot[w], words[w][bit],
                      name(std::string(n) + "_t" + std::to_string(w) + "_" +
                           std::to_string(bit)));
    }
    out[bit] = reduce_or(std::move(terms),
                         std::string(n) + "_or" + std::to_string(bit));
  }
  return out;
}

Bus WordOps::shift_word(const Bus& a, const Bus& amount, bool left,
                        std::string_view n) {
  Bus cur = a;
  for (std::size_t stage = 0; stage < amount.size(); ++stage) {
    const std::size_t dist = 1ULL << stage;
    Bus shifted(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (left) {
        shifted[i] = i >= dist ? cur[i - dist] : lit(false);
      } else {
        shifted[i] = i + dist < cur.size() ? cur[i + dist] : lit(false);
      }
    }
    cur = mux_word(amount[stage], cur, shifted,
                   std::string(n) + "_s" + std::to_string(stage));
  }
  return cur;
}

Bus WordOps::mul_word(const Bus& a, const Bus& b, std::string_view n) {
  assert(a.size() == b.size());
  const std::size_t width = a.size();
  // acc holds the running sum of partial products; row i contributes
  // (a & b[i]) << i, of which only bits i..width-1 land in the result.
  Bus acc(width, kInvalidId);
  for (std::size_t i = 0; i < width; ++i) acc[i] = lit(false);
  for (std::size_t row = 0; row < width; ++row) {
    // Partial product bits pp[j] = a[j] & b[row] for j < width-row.
    const std::size_t cols = width - row;
    Bus pp(cols);
    for (std::size_t j = 0; j < cols; ++j) {
      pp[j] = and2(a[j], b[row],
                   bit_name(std::string(n) + "_pp" + std::to_string(row), j));
    }
    if (row == 0) {
      for (std::size_t j = 0; j < cols; ++j) acc[j] = pp[j];
      continue;
    }
    // acc[row..] += pp (ripple; carry beyond the top bit is discarded).
    Bus hi(acc.begin() + static_cast<long>(row), acc.end());
    const AddResult r =
        add_word(hi, pp, lit(false), std::string(n) + "_r" + std::to_string(row));
    for (std::size_t j = 0; j < cols; ++j) acc[row + j] = r.sum[j];
  }
  return acc;
}

RegWord WordOps::reg_declare(int width, std::string_view n, NetId rstn) {
  RegWord r;
  r.flops.resize(static_cast<std::size_t>(width));
  r.q.resize(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const std::string base = std::string(n) + "_q_" + std::to_string(i);
    r.q[i] = nl_->add_net(name(base));
    if (rstn == kInvalidId) {
      r.flops[i] = nl_->add_cell(CellType::kDff, name("u_" + base + "_reg"),
                                 r.q[i], {kInvalidId});
    } else {
      r.flops[i] = nl_->add_cell(CellType::kDffR, name("u_" + base + "_reg"),
                                 r.q[i], {kInvalidId, rstn});
    }
  }
  return r;
}

void WordOps::reg_connect(RegWord& r, const Bus& d) {
  assert(r.flops.size() == d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    nl_->connect_input(r.flops[i], kDffD, d[i]);
}

RegWord WordOps::reg_word(const Bus& d, std::string_view n, NetId rstn) {
  RegWord r = reg_declare(static_cast<int>(d.size()), n, rstn);
  reg_connect(r, d);
  return r;
}

void WordOps::tag_reg(const RegWord& r, std::string_view tag) {
  for (std::size_t i = 0; i < r.flops.size(); ++i)
    nl_->set_tag(r.flops[i], std::string(tag) + ":" + std::to_string(i));
}

std::uint64_t bus_value(const Bus& bus, const std::vector<int>& bit_values) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    if (bit_values[bus[i]]) v |= 1ULL << i;
  return v;
}

}  // namespace olfui
