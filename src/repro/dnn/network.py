"""DAG-structured networks.

ModelHub's conceptual DNN data model (Sec. III-A) views a model as a DAG
whose nodes are unit operators (layers) and whose edges are the
``(f_i, f_{i-1})`` dependencies.  :class:`Network` implements that model:
most nodes consume a single upstream node (the special ``INPUT`` sentinel
for the first layer), while multi-input layers (``Add`` — residual skip
connections, ``Concat``) consume several; any number of downstream nodes
may consume a node's output.

The class carries the structural *mutation* API that DQL ``construct``
queries compile to — inserting a node by splitting an outgoing edge,
deleting a node, and slicing a sub-network between two nodes — plus the
serialization used by the DLV catalog (``Node``/``Edge`` relations), and a
reverse-topological ``backward`` that accumulates gradients correctly
through fan-out and fan-in.
"""

from __future__ import annotations

import copy
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.dnn.interval import Interval
from repro.dnn.layers import Layer, layer_from_spec

INPUT = "@input"


class GraphError(ValueError):
    """A structurally invalid network DAG.

    Raised with the offending node names spelled out — cycles, inputs
    referencing nodes that do not exist, and validation failures from
    ``build(validate=True)`` all surface through this type.
    """


class NetworkNode:
    """A named node in the model DAG: a layer plus its upstream edges.

    Rewiring a node (``input_names`` or ``input_name``) drops its owning
    network's stored topological order.
    """

    def __init__(self, layer: Layer, input_names: tuple[str, ...],
                 network: Optional["Network"] = None) -> None:
        self.layer = layer
        self._network = network
        self.input_names = tuple(input_names)

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def input_names(self) -> tuple[str, ...]:
        """Every upstream node, the primary one first."""
        return self._input_names

    @input_names.setter
    def input_names(self, value: tuple[str, ...]) -> None:
        self._input_names = tuple(value)
        if self._network is not None:
            self._network._order = None

    @property
    def input_name(self) -> str:
        """The primary (first) upstream node — chain operations use it."""
        return self.input_names[0]

    @input_name.setter
    def input_name(self, value: str) -> None:
        self.input_names = (value, *self.input_names[1:])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkNode({self.name!r} <- {list(self.input_names)!r})"


class Network:
    """A DAG of layers with forward/backward evaluation and mutations.

    Args:
        input_shape: Shape of a single input example, excluding the batch
            dimension — ``(C, H, W)`` for images, ``(D,)`` for flat data.
        name: Human-readable model name (DLV model versions require one).
    """

    def __init__(self, input_shape: tuple, name: str = "model") -> None:
        self.name = name
        self.input_shape = tuple(input_shape)
        self._nodes: dict[str, NetworkNode] = {}
        self._built = False
        # The topological order of the current wiring; every mutator
        # drops it, the next topological_order() computes it again.
        self._order: Optional[list[str]] = None

    # -- construction ------------------------------------------------------

    def add(
        self,
        layer: Layer,
        input_name: Optional[str] = None,
        extra_inputs: Iterable[str] = (),
    ) -> "Network":
        """Append a layer.

        By default the layer consumes the current sink (the last layer
        added), forming a chain; pass ``input_name`` to branch, and
        ``extra_inputs`` for multi-input layers (``Add``, ``Concat``).
        Returns ``self`` for chaining.
        """
        if layer.name in self._nodes or layer.name == INPUT:
            raise ValueError(f"duplicate node name {layer.name!r}")
        if input_name is None:
            input_name = self._last_added if self._nodes else INPUT
        inputs = (input_name, *extra_inputs)
        for upstream in inputs:
            if upstream != INPUT and upstream not in self._nodes:
                raise KeyError(f"unknown input node {upstream!r}")
        if layer.multi_input and len(inputs) < 2:
            raise ValueError(
                f"{layer.name!r} is multi-input; pass extra_inputs"
            )
        if not layer.multi_input and len(inputs) != 1:
            raise ValueError(
                f"{layer.name!r} is single-input; got {len(inputs)} inputs"
            )
        self._nodes[layer.name] = NetworkNode(layer, inputs, self)
        self._last_added = layer.name
        self._built = False
        self._order = None
        return self

    def build(self, seed: int = 0, validate: bool = False) -> "Network":
        """Allocate all parameters with a deterministic RNG and infer shapes.

        With ``validate=True`` the static graph validator
        (:func:`repro.analysis.net_check.check_network`) runs first and a
        :class:`GraphError` listing every error-severity diagnostic is
        raised *before* any weights are allocated — this is the hook DQL's
        strict mode uses to reject shape-mismatched mutations cheaply.
        """
        if validate:
            # Imported lazily: repro.analysis depends on this module.
            from repro.analysis.net_check import validate_network

            validate_network(self)
        rng = np.random.default_rng(seed)
        shapes: dict[str, tuple] = {INPUT: self.input_shape}
        for name in self.topological_order():
            node = self._nodes[name]
            if node.layer.multi_input:
                in_shape = [shapes[i] for i in node.input_names]
            else:
                in_shape = shapes[node.input_name]
            shapes[name] = node.layer.build(in_shape, rng)
        self._built = True
        return self

    @property
    def is_built(self) -> bool:
        return self._built

    # -- structure access ----------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, name: str) -> Layer:
        return self._nodes[name].layer

    def nodes(self) -> Iterator[NetworkNode]:
        return iter(self._nodes.values())

    def node_names(self) -> list[str]:
        return list(self._nodes)

    def layers(self) -> Iterator[Layer]:
        for node in self._nodes.values():
            yield node.layer

    def edges(self) -> list[tuple[str, str]]:
        """All ``(from, to)`` edges, including edges from ``INPUT``."""
        return [
            (upstream, node.name)
            for node in self._nodes.values()
            for upstream in node.input_names
        ]

    def consumers(self, name: str) -> list[str]:
        """Names of nodes consuming ``name``'s output."""
        return [
            n.name for n in self._nodes.values() if name in n.input_names
        ]

    def predecessor(self, name: str) -> str:
        """The primary upstream node feeding ``name`` (possibly ``INPUT``)."""
        return self._nodes[name].input_name

    def inputs_of(self, name: str) -> tuple[str, ...]:
        """All upstream nodes feeding ``name``."""
        return self._nodes[name].input_names

    def sinks(self) -> list[str]:
        """Nodes whose output nobody consumes."""
        consumed = {
            upstream
            for node in self._nodes.values()
            for upstream in node.input_names
        }
        return [name for name in self._nodes if name not in consumed]

    @property
    def output_name(self) -> str:
        """The single output node; raises when the DAG has several sinks."""
        sinks = self.sinks()
        if len(sinks) != 1:
            raise ValueError(f"network has {len(sinks)} sinks: {sinks}")
        return sinks[0]

    def dangling_inputs(self) -> list[tuple[str, str]]:
        """``(node, missing_input)`` pairs for edges into nonexistent nodes."""
        return [
            (node.name, upstream)
            for node in self._nodes.values()
            for upstream in node.input_names
            if upstream != INPUT and upstream not in self._nodes
        ]

    def topological_order(self) -> list[str]:
        """Kahn topological order of the node names — computed once per
        wiring of the network, not once per pass.

        Raises:
            GraphError: When the graph is not a well-formed DAG — a node
                consumes an input that does not exist, or the nodes form a
                cycle.  The message names the offending nodes.
        """
        if self._order is not None:
            return list(self._order)
        dangling = self.dangling_inputs()
        if dangling:
            detail = ", ".join(
                f"{node!r} consumes missing node {upstream!r}"
                for node, upstream in dangling
            )
            raise GraphError(f"network has dangling inputs: {detail}")
        indegree = {name: 0 for name in self._nodes}
        for node in self._nodes.values():
            for upstream in node.input_names:
                if upstream != INPUT:
                    indegree[node.name] += 1
        ready = [n for n, d in indegree.items() if d == 0]
        order: list[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for consumer in self.consumers(name):
                # Parallel edges (e.g. Add with twice the same input after
                # a delete mutation) count once per edge.
                indegree[consumer] -= self._nodes[consumer].input_names.count(
                    name
                )
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._nodes):
            stuck = sorted(set(self._nodes) - set(order))
            raise GraphError(
                f"network contains a cycle through nodes: {stuck}"
            )
        self._order = order
        return list(order)

    def param_count(self) -> int:
        """Total learnable parameters across all layers."""
        return sum(layer.param_count() for layer in self.layers())

    def parametric_layers(self) -> list[Layer]:
        """Layers with learnable weights, in topological order."""
        return [
            self._nodes[name].layer
            for name in self.topological_order()
            if self._nodes[name].layer.is_parametric
        ]

    # -- evaluation ----------------------------------------------------------

    def _gather(self, node: NetworkNode, values: dict):
        if node.layer.multi_input:
            return [values[i] for i in node.input_names]
        return values[node.input_name]

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        upto: Optional[str] = None,
    ) -> np.ndarray:
        """Run the forward pass and return the output of ``upto`` (or the sink)."""
        self._require_built()
        target = upto if upto is not None else self.output_name
        if target not in self._nodes:
            raise KeyError(f"unknown node {target!r}")
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"input shape {tuple(x.shape[1:])} does not match the "
                f"network's {self.input_shape} (batch dimension excluded)"
            )
        values: dict[str, np.ndarray] = {INPUT: x}
        for name in self.topological_order():
            node = self._nodes[name]
            values[name] = node.layer.forward(
                self._gather(node, values), training
            )
            if name == target and not training:
                break
        return values[target]

    def backward(self, grad: np.ndarray, from_node: str) -> np.ndarray:
        """Backpropagate ``grad`` from a node's output to the input.

        Requires a preceding ``forward(..., training=True)``.  Gradients
        accumulate correctly through fan-out (a node consumed by several
        downstream nodes) and fan-in (multi-input layers); parametric
        layers record their parameter gradients in ``layer.grads``.

        Returns:
            The gradient with respect to the network input.
        """
        self._require_built()
        if from_node not in self._nodes:
            raise KeyError(f"unknown node {from_node!r}")
        grads: dict[str, np.ndarray] = {from_node: grad}
        for name in reversed(self.topological_order()):
            if name not in grads:
                continue
            node = self._nodes[name]
            upstream_grads = node.layer.backward(grads.pop(name))
            if not node.layer.multi_input:
                upstream_grads = [upstream_grads]
            for upstream, g in zip(node.input_names, upstream_grads):
                if upstream in grads:
                    grads[upstream] = grads[upstream] + g
                else:
                    grads[upstream] = g
        return grads.get(INPUT)

    def forward_interval(
        self,
        x: np.ndarray,
        param_bounds: Optional[dict[str, dict[str, Interval]]] = None,
        upto: Optional[str] = None,
    ) -> Interval:
        """Interval forward pass with per-layer parameter bounds.

        Args:
            x: Exact input batch.
            param_bounds: ``{layer_name: {param_name: Interval}}`` — bounds
                for weights known only up to their high-order byte segments.
                Layers absent from the mapping use their exact parameters.
            upto: Evaluate up to this node (default: the unique sink).
        """
        self._require_built()
        target = upto if upto is not None else self.output_name
        values: dict[str, Interval] = {INPUT: Interval.exact(x)}
        for name in self.topological_order():
            node = self._nodes[name]
            bounds = None if param_bounds is None else param_bounds.get(name)
            values[name] = node.layer.forward_interval(
                self._gather(node, values), bounds
            )
            if name == target:
                break
        return values[target]

    def forward_many(
        self,
        batches: Sequence[np.ndarray],
        upto: Optional[str] = None,
    ) -> list[np.ndarray]:
        """Run several input batches through one concatenated forward pass.

        The serving layer's batching entry point: concurrent predict
        requests coalesce here so the DAG is traversed once per batch
        window instead of once per request.  Per-batch outputs come back
        in submission order, split along the batch axis.
        """
        arrays = [np.asarray(batch, dtype=np.float32) for batch in batches]
        if not arrays:
            return []
        for array in arrays:
            if tuple(array.shape[1:]) != self.input_shape:
                raise ValueError(
                    f"input shape {tuple(array.shape[1:])} does not match "
                    f"the network's {self.input_shape} (batch dim excluded)"
                )
        out = self.forward(np.concatenate(arrays, axis=0), upto=upto)
        offsets = np.cumsum([len(a) for a in arrays])[:-1]
        return np.split(out, offsets, axis=0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted label per example (argmax of the sink output)."""
        return np.argmax(self.forward(x), axis=1)

    # -- weights -------------------------------------------------------------

    def get_weights(self) -> dict[str, dict[str, np.ndarray]]:
        """Copy of all parameters: ``{layer_name: {param_name: array}}``."""
        self._require_built()
        return {
            layer.name: {k: v.copy() for k, v in layer.params.items()}
            for layer in self.layers()
            if layer.is_parametric
        }

    def set_weights(self, weights: dict[str, dict[str, np.ndarray]]) -> None:
        """Load parameters produced by :meth:`get_weights`.

        Layers absent from ``weights`` keep their current values — this is
        the substrate for fine-tuning, where only some layers are reused.
        """
        self._require_built()
        for layer_name, params in weights.items():
            if layer_name not in self._nodes:
                raise KeyError(f"no layer named {layer_name!r}")
            layer = self._nodes[layer_name].layer
            for key, value in params.items():
                if key not in layer.params:
                    raise KeyError(f"layer {layer_name!r} has no param {key!r}")
                if layer.params[key].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {layer_name}.{key}: "
                        f"{layer.params[key].shape} vs {value.shape}"
                    )
                layer.params[key] = np.asarray(value, dtype=np.float32).copy()

    # -- mutations -----------------------------------------------------------

    def _replace_input(self, consumer: str, old: str, new: str) -> None:
        node = self._nodes[consumer]
        node.input_names = tuple(
            new if upstream == old else upstream
            for upstream in node.input_names
        )

    def insert_after(self, anchor: str, layer: Layer) -> "Network":
        """Insert ``layer`` by splitting the outgoing edges of ``anchor``.

        This is DQL's ``insert`` mutation: the new node consumes ``anchor``
        and every former consumer of ``anchor`` now consumes the new node.
        """
        if anchor not in self._nodes:
            raise KeyError(f"unknown anchor node {anchor!r}")
        if layer.name in self._nodes:
            raise ValueError(f"duplicate node name {layer.name!r}")
        if layer.multi_input:
            raise ValueError("cannot insert a multi-input layer on one edge")
        for consumer in self.consumers(anchor):
            self._replace_input(consumer, anchor, layer.name)
        self._nodes[layer.name] = NetworkNode(layer, (anchor,), self)
        self._last_added = layer.name
        self._built = False
        self._order = None
        return self

    def delete_node(self, name: str) -> "Network":
        """Delete a node, reconnecting its consumers to its predecessor.

        This is DQL's ``delete`` mutation.  Multi-input consumers keep
        their arity: the deleted node is replaced by its primary input.
        """
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        upstream = self._nodes[name].input_name
        for consumer in self.consumers(name):
            self._replace_input(consumer, name, upstream)
        del self._nodes[name]
        self._built = False
        self._order = None
        return self

    def slice_between(self, start: str, end: str, name: Optional[str] = None) -> "Network":
        """Extract the sub-network of all paths from ``start`` to ``end``.

        This implements DQL's ``slice`` operator.  The result is a new
        network whose input is what fed ``start``; every other included
        node must have all of its inputs inside the slice.
        """
        if start not in self._nodes or end not in self._nodes:
            raise KeyError(f"slice endpoints must exist: {start!r}, {end!r}")
        on_path = self._nodes_between(start, end)
        if not on_path:
            raise ValueError(f"no path from {start!r} to {end!r}")
        start_input = self._nodes[start].layer.input_shape or self.input_shape
        if start_input and isinstance(start_input[0], (tuple, list)):
            # Multi-input start nodes have no single input shape.
            raise ValueError(f"cannot slice from multi-input node {start!r}")
        sliced = Network(start_input, name=name or f"{self.name}-slice")
        for node_name in self.topological_order():
            if node_name not in on_path:
                continue
            node = self._nodes[node_name]
            layer = copy.deepcopy(node.layer)
            if node_name == start:
                inputs: tuple[str, ...] = (INPUT,)
            else:
                missing = [
                    i for i in node.input_names
                    if i not in on_path and i != INPUT
                ]
                if missing:
                    raise ValueError(
                        f"slice would cut inputs {missing} of {node_name!r}"
                    )
                inputs = node.input_names
            sliced.add(layer, inputs[0], inputs[1:])
        # A slice of a built network keeps its layers' shapes and weights.
        sliced._built = self._built
        return sliced

    def _nodes_between(self, start: str, end: str) -> set[str]:
        reachable_from_start: set[str] = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            if current in reachable_from_start:
                continue
            reachable_from_start.add(current)
            frontier.extend(self.consumers(current))
        reaches_end: set[str] = set()
        frontier = [end]
        while frontier:
            current = frontier.pop()
            if current in reaches_end or current == INPUT:
                continue
            reaches_end.add(current)
            frontier.extend(self._nodes[current].input_names)
        return reachable_from_start & reaches_end

    def clone(self, name: Optional[str] = None) -> "Network":
        """Deep structural + parameter copy."""
        cloned = copy.deepcopy(self)
        if name is not None:
            cloned.name = name
        return cloned

    # -- serialization ---------------------------------------------------------

    def spec(self) -> dict:
        """JSON-serializable structural description (no weights)."""
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "nodes": [
                {
                    "layer": self._nodes[n].layer.spec(),
                    "input": self._nodes[n].input_name,
                    "extra_inputs": list(self._nodes[n].input_names[1:]),
                }
                for n in self.topological_order()
            ],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Network":
        """Reconstruct an (unbuilt) network from :meth:`spec` output."""
        net = cls(tuple(spec["input_shape"]), name=spec.get("name", "model"))
        for entry in spec["nodes"]:
            net.add(
                layer_from_spec(entry["layer"]),
                entry["input"],
                entry.get("extra_inputs", ()),
            )
        return net

    def architecture_signature(self) -> str:
        """Compact regex-style architecture string (cf. Table I)."""
        parts = []
        for name in self.topological_order():
            layer = self._nodes[name].layer
            if layer.kind in ("CONV", "POOL", "FULL"):
                parts.append(layer.kind[0] + layer.kind[1:].lower())
        return "".join(f"L{p}" for p in parts)

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError(
                "network is not built; call .build(seed) after construction "
                "or mutation"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, input={self.input_shape}, "
            f"nodes={len(self._nodes)})"
        )


def chain(input_shape: tuple, layers: Iterable[Layer], name: str = "model") -> Network:
    """Convenience constructor for a linear chain of layers."""
    net = Network(input_shape, name=name)
    for layer in layers:
        net.add(layer)
    return net
