#pragma once

#include <functional>
#include <memory>

#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "util/bitmap.hpp"

namespace csaw {

/// Topology access given to user policies. Both the in-memory engine
/// (whole CSR) and the out-of-memory engine (resident partition plus host
/// fallback) provide this view, so user code is identical in both — the
/// paper's API promise that end users never see the execution mode.
class GraphView {
 public:
  virtual ~GraphView() = default;

  /// Vertex-id space of the whole graph (partitioned views included).
  virtual VertexId num_vertices() const = 0;
  /// Out-degree of v.
  virtual EdgeIndex degree(VertexId v) const = 0;
  /// Sorted neighbors of v.
  virtual std::span<const VertexId> neighbors(VertexId v) const = 0;
  /// Weight of the k-th out-edge of v (1.0 when unweighted).
  virtual float edge_weight(VertexId v, EdgeIndex k) const = 0;
  /// Weights aligned with neighbors(v); empty when the graph is
  /// unweighted (every weight is 1.0).
  virtual std::span<const float> edge_weights(VertexId v) const = 0;
  /// O(log degree(v)) membership test (node2vec's distance bias).
  virtual bool has_edge(VertexId v, VertexId u) const = 0;
};

/// GraphView over a whole in-memory CSR graph.
class CsrGraphView final : public GraphView {
 public:
  explicit CsrGraphView(const CsrGraph& graph) : graph_(&graph) {}

  VertexId num_vertices() const override { return graph_->num_vertices(); }
  EdgeIndex degree(VertexId v) const override { return graph_->degree(v); }
  std::span<const VertexId> neighbors(VertexId v) const override {
    return graph_->neighbors(v);
  }
  float edge_weight(VertexId v, EdgeIndex k) const override {
    return graph_->edge_weight(v, k);
  }
  std::span<const float> edge_weights(VertexId v) const override {
    return graph_->edge_weights(v);
  }
  bool has_edge(VertexId v, VertexId u) const override {
    return graph_->has_edge(v, u);
  }

 private:
  const CsrGraph* graph_;
};

/// The edge handed to EDGEBIAS / UPDATE (paper Fig. 2(a)): neighbor `u`
/// reached from frontier vertex `v` via v's k-th out-edge.
struct EdgeRef {
  VertexId v = 0;       ///< frontier (source) vertex
  VertexId u = 0;       ///< candidate neighbor
  float weight = 1.0f;  ///< weight of edge (v, u)
  EdgeIndex k = 0;      ///< index of u within v's adjacency
};

/// Per-instance context visible to policies.
struct InstanceContext {
  std::uint32_t instance_id = 0;
  /// Current sampling iteration (CurrDepth).
  std::uint32_t depth = 0;
  /// The vertex explored at the preceding step (SOURCE(e.v) in the
  /// paper's node2vec listing); kInvalidVertex on the first step.
  VertexId prev_vertex = kInvalidVertex;
  /// First seed of the instance (random walk with restart returns here).
  VertexId seed_vertex = kInvalidVertex;
  /// Vertices already included in this instance's sample; null when the
  /// algorithm does not track visitation (random walks).
  const Bitset* visited = nullptr;
};

/// The C-SAW user programming interface (paper Fig. 2(a)): three hooks,
/// all centered on bias. Defaults make every hook optional — an empty
/// Policy is unbiased neighbor sampling.
struct Policy {
  /// VERTEXBIAS: bias of candidate vertex v in the FrontierPool
  /// (Equation 2). Used only when the spec enables frontier selection.
  std::function<float(const GraphView&, VertexId v, const InstanceContext&)>
      vertex_bias;

  /// EDGEBIAS: bias of the neighbor reached through edge e (Equation 3).
  std::function<float(const GraphView&, const EdgeRef& e,
                      const InstanceContext&)>
      edge_bias;

  /// Static EDGEBIAS: the same Equation 3 hook for biases that depend on
  /// the edge alone. It takes no InstanceContext, so the type itself
  /// proves the bias never changes between visits, which lets walk-shaped
  /// specs reuse one per-vertex CTPS (core/static_ctps.hpp) instead of
  /// re-biasing and re-scanning the neighbor list on every step. Samples
  /// and simulated costs are identical to setting the same function as
  /// `edge_bias`. At most one of the two hooks may be set; with neither,
  /// the bias is the static uniform 1 and walks use the table as well.
  std::function<float(const GraphView&, const EdgeRef& e)> static_edge_bias;

  /// UPDATE: the vertex to insert into the FrontierPool given sampled
  /// edge e (Equation 4); kInvalidVertex inserts nothing. `r` is a
  /// uniform [0,1) draw for probabilistic decisions (jump/restart). The
  /// engines draw it only when this hook is set: the default reads no
  /// draw, and the counter-based RNG makes a skipped draw unobservable.
  std::function<VertexId(const GraphView&, const EdgeRef& e,
                         const InstanceContext&, double r)>
      update;

  /// Evaluates VERTEXBIAS with the uniform default.
  float eval_vertex_bias(const GraphView& view, VertexId v,
                         const InstanceContext& ctx) const {
    return vertex_bias ? vertex_bias(view, v, ctx) : 1.0f;
  }
  /// Evaluates EDGEBIAS through whichever hook is set, with the uniform
  /// default.
  float eval_edge_bias(const GraphView& view, const EdgeRef& e,
                       const InstanceContext& ctx) const {
    if (static_edge_bias) return static_edge_bias(view, e);
    return edge_bias ? edge_bias(view, e, ctx) : 1.0f;
  }
  /// Evaluates UPDATE with the "advance to the sampled neighbor" default.
  VertexId eval_update(const GraphView& view, const EdgeRef& e,
                       const InstanceContext& ctx, double r) const {
    return update ? update(view, e, ctx, r) : e.u;
  }

  /// Rejects a policy that sets both `edge_bias` and `static_edge_bias`
  /// (CheckError). Every engine calls this at construction.
  void validate() const;
};

}  // namespace csaw
