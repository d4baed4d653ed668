#include "rck/rcce/collectives.hpp"

#include <algorithm>
#include <stdexcept>

namespace rck::rcce {

namespace {

/// Virtual rank with `root` relabeled to 0 (standard binomial-tree trick).
int vrank_of(int rank, int root, int p) { return (rank - root + p) % p; }
int rank_of(int vrank, int root, int p) { return (vrank + root) % p; }

bio::Bytes encode_doubles(const std::vector<double>& v) {
  bio::WireWriter w;
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) w.f64(x);
  return w.take();
}

std::vector<double> decode_doubles(bio::Bytes raw) {
  bio::WireReader r(std::move(raw));
  const std::uint32_t n = r.count(sizeof(double));
  std::vector<double> v(n);
  for (std::uint32_t k = 0; k < n; ++k) v[k] = r.f64();
  return v;
}

void combine(std::vector<double>& into, const std::vector<double>& other,
             const ReduceOp& op) {
  if (into.size() != other.size())
    throw RcceError("reduce: vector length mismatch across UEs");
  for (std::size_t k = 0; k < into.size(); ++k) into[k] = op(into[k], other[k]);
}

}  // namespace

bio::Bytes bcast(Comm& comm, bio::Bytes data, int root, CollectiveAlgo algo) {
  const int p = comm.num_ues();
  const int me = comm.ue();
  if (root < 0 || root >= p) throw RcceError("bcast: bad root");
  if (p == 1) return data;

  if (algo == CollectiveAlgo::Linear) {
    if (me == root) {
      for (int r = 0; r < p; ++r)
        if (r != root) comm.send(r, data);
      return data;
    }
    return comm.recv(root);
  }

  // Binomial tree: in round `mask`, holders with vrank < mask forward to
  // vrank + mask.
  const int v = vrank_of(me, root, p);
  bio::Bytes payload;
  bool have = false;
  if (v == 0) {
    payload = std::move(data);
    have = true;
  }
  for (int mask = 1; mask < p; mask <<= 1) {
    if (!have && v < 2 * mask && v >= mask) {
      payload = comm.recv(rank_of(v - mask, root, p));
      have = true;
    } else if (have && v < mask && v + mask < p) {
      comm.send(rank_of(v + mask, root, p), payload);
    }
  }
  return payload;
}

std::vector<double> reduce(Comm& comm, std::vector<double> values, const ReduceOp& op,
                           int root, CollectiveAlgo algo) {
  const int p = comm.num_ues();
  const int me = comm.ue();
  if (root < 0 || root >= p) throw RcceError("reduce: bad root");
  if (p == 1) return values;

  if (algo == CollectiveAlgo::Linear) {
    if (me == root) {
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        combine(values, decode_doubles(comm.recv(r)), op);
      }
      return values;
    }
    comm.send(root, encode_doubles(values));
    return {};
  }

  // Binomial tree: in round `mask`, vranks with the bit set send their
  // partial result down to vrank - mask and leave.
  const int v = vrank_of(me, root, p);
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((v & mask) != 0) {
      comm.send(rank_of(v - mask, root, p), encode_doubles(values));
      return {};
    }
    if (v + mask < p)
      combine(values, decode_doubles(comm.recv(rank_of(v + mask, root, p))), op);
  }
  return values;  // only vrank 0 (the root) reaches here
}

std::vector<double> allreduce(Comm& comm, std::vector<double> values,
                              const ReduceOp& op, CollectiveAlgo algo) {
  std::vector<double> reduced = reduce(comm, std::move(values), op, 0, algo);
  if (comm.ue() == 0) return decode_doubles(bcast(comm, encode_doubles(reduced), 0, algo));
  return decode_doubles(bcast(comm, {}, 0, algo));
}

std::vector<bio::Bytes> gather(Comm& comm, bio::Bytes data, int root) {
  const int p = comm.num_ues();
  const int me = comm.ue();
  if (root < 0 || root >= p) throw RcceError("gather: bad root");
  if (me != root) {
    comm.send(root, std::move(data));
    return {};
  }
  std::vector<bio::Bytes> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(root)] = std::move(data);
  for (int r = 0; r < p; ++r)
    if (r != root) out[static_cast<std::size_t>(r)] = comm.recv(r);
  return out;
}

bio::Bytes scatter(Comm& comm, std::vector<bio::Bytes> chunks, int root) {
  const int p = comm.num_ues();
  const int me = comm.ue();
  if (root < 0 || root >= p) throw RcceError("scatter: bad root");
  if (me == root) {
    if (static_cast<int>(chunks.size()) != p)
      throw RcceError("scatter: need one chunk per UE");
    for (int r = 0; r < p; ++r)
      if (r != root) comm.send(r, std::move(chunks[static_cast<std::size_t>(r)]));
    return std::move(chunks[static_cast<std::size_t>(root)]);
  }
  return comm.recv(root);
}

double allreduce_sum(Comm& comm, double value) {
  return allreduce(comm, {value}, [](double a, double b) { return a + b; })[0];
}

double allreduce_max(Comm& comm, double value) {
  return allreduce(comm, {value}, [](double a, double b) { return std::max(a, b); })[0];
}

}  // namespace rck::rcce
