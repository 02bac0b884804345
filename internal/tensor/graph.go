package tensor

import (
	"fmt"
	"sort"
)

// NodeKind distinguishes the roles a graph node can play.
type NodeKind int

// Node kinds.
const (
	KindPlaceholder NodeKind = iota // fed at run time
	KindVariable                    // trainable parameter
	KindConstant                    // fixed value baked into the graph
	KindOp                          // computed from inputs
)

func (k NodeKind) String() string {
	switch k {
	case KindPlaceholder:
		return "placeholder"
	case KindVariable:
		return "variable"
	case KindConstant:
		return "constant"
	case KindOp:
		return "op"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one vertex of a static compute graph. Leaf nodes (placeholders,
// variables, constants) hold values directly; op nodes compute their value
// from their inputs during Graph.Run.
type Node struct {
	id     int
	kind   NodeKind
	name   string
	op     op
	inputs []*Node

	value *Tensor // forward value (owned by the node for ops and variables)
	grad  *Tensor // gradient of the loss w.r.t. this node, set by Backward
}

// Value returns the node's current forward value, or nil if it has not been
// computed or fed.
func (n *Node) Value() *Tensor { return n.value }

// Grad returns the gradient computed by the most recent Backward call, or nil.
func (n *Node) Grad() *Tensor { return n.grad }

// SetValue overwrites a variable's value. Panics for non-variable nodes.
func (n *Node) SetValue(t *Tensor) {
	if n.kind != KindVariable {
		panic(fmt.Sprintf("tensor: SetValue on %s node %q", n.kind, n.name))
	}
	n.value = t.Clone()
}

func (n *Node) String() string {
	return fmt.Sprintf("%s#%d(%s)", n.name, n.id, n.kind)
}

// Graph is a static compute graph. Nodes are appended in construction order,
// which is guaranteed to be a topological order because every op's inputs
// must exist before the op is created. Run evaluates forward in that order;
// Backward propagates gradients in reverse.
//
// Graph is not safe for concurrent use; create one graph per goroutine or
// guard externally. This mirrors a TensorFlow session bound to one device.
type Graph struct {
	nodes     []*Node
	variables []*Node
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

func (g *Graph) add(kind NodeKind, name string, o op, inputs ...*Node) *Node {
	for _, in := range inputs {
		if in == nil {
			panic(fmt.Sprintf("tensor: nil input to op %q", name))
		}
		if in.id >= len(g.nodes) || g.nodes[in.id] != in {
			panic(fmt.Sprintf("tensor: input %s does not belong to this graph", in))
		}
	}
	n := &Node{id: len(g.nodes), kind: kind, name: name, op: o, inputs: inputs}
	g.nodes = append(g.nodes, n)
	return n
}

// Placeholder declares an input fed at run time via Feed.
func (g *Graph) Placeholder(name string) *Node {
	return g.add(KindPlaceholder, name, nil)
}

// Variable declares a trainable parameter initialized to a copy of init.
func (g *Graph) Variable(name string, init *Tensor) *Node {
	n := g.add(KindVariable, name, nil)
	n.value = init.Clone()
	g.variables = append(g.variables, n)
	return n
}

// Const declares a fixed tensor baked into the graph.
func (g *Graph) Const(name string, t *Tensor) *Node {
	n := g.add(KindConstant, name, nil)
	n.value = t.Clone()
	return n
}

// Variables returns the graph's trainable parameters in creation order.
func (g *Graph) Variables() []*Node { return g.variables }

// Feed is one placeholder binding for a Run call.
type Feed struct {
	Node  *Node
	Value *Tensor
}

// Run evaluates every op node in topological order with the given
// placeholder bindings. After Run returns, Value on any node yields its
// forward value. Placeholders not listed in feeds retain their previous
// value if any; an unfed, never-fed placeholder that is actually consumed
// causes an error.
func (g *Graph) Run(feeds ...Feed) error {
	for _, f := range feeds {
		if f.Node.kind != KindPlaceholder {
			return fmt.Errorf("tensor: fed non-placeholder node %s", f.Node)
		}
		if f.Node.id >= len(g.nodes) || g.nodes[f.Node.id] != f.Node {
			return fmt.Errorf("tensor: fed node %s does not belong to this graph", f.Node)
		}
		if f.Value == nil {
			return fmt.Errorf("tensor: nil value fed to %s", f.Node)
		}
		f.Node.value = f.Value
	}
	for _, n := range g.nodes {
		if n.kind != KindOp {
			continue
		}
		ins := make([]*Tensor, len(n.inputs))
		for i, in := range n.inputs {
			if in.value == nil {
				return fmt.Errorf("tensor: node %s consumed by %s has no value (unfed placeholder?)", in, n)
			}
			ins[i] = in.value
		}
		out, err := n.op.forward(ins)
		if err != nil {
			return fmt.Errorf("tensor: forward %s: %w", n, err)
		}
		n.value = out
	}
	return nil
}

// Backward computes gradients of the scalar loss node with respect to every
// node that (transitively) feeds it, in particular all variables. Run must
// have been called first. Gradients are available via Node.Grad.
func (g *Graph) Backward(loss *Node) error {
	if loss.id >= len(g.nodes) || g.nodes[loss.id] != loss {
		return fmt.Errorf("tensor: loss node %s does not belong to this graph", loss)
	}
	if loss.value == nil {
		return fmt.Errorf("tensor: Backward before Run: loss %s has no value", loss)
	}
	if loss.value.Size() != 1 {
		return fmt.Errorf("tensor: loss %s is not scalar (shape %v)", loss, loss.value.Shape())
	}
	// Determine which nodes are needed (ancestors of loss) so we do not
	// propagate into unrelated parts of the graph.
	needed := make([]bool, len(g.nodes))
	var mark func(*Node)
	mark = func(n *Node) {
		if needed[n.id] {
			return
		}
		needed[n.id] = true
		for _, in := range n.inputs {
			mark(in)
		}
	}
	mark(loss)

	for _, n := range g.nodes {
		n.grad = nil
	}
	loss.grad = Full(1, loss.value.Shape()...)

	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		if !needed[n.id] || n.kind != KindOp || n.grad == nil {
			continue
		}
		ins := make([]*Tensor, len(n.inputs))
		for j, in := range n.inputs {
			ins[j] = in.value
		}
		grads, err := n.op.backward(ins, n.value, n.grad)
		if err != nil {
			return fmt.Errorf("tensor: backward %s: %w", n, err)
		}
		if len(grads) != len(n.inputs) {
			return fmt.Errorf("tensor: backward %s returned %d grads for %d inputs", n, len(grads), len(n.inputs))
		}
		for j, gin := range grads {
			if gin == nil {
				continue
			}
			in := n.inputs[j]
			if !needed[in.id] {
				continue
			}
			if in.grad == nil {
				in.grad = gin.Clone()
			} else {
				in.grad.AddScaled(1, gin)
			}
		}
	}
	return nil
}

// Minimize runs one forward/backward pass with the given feeds and applies
// one optimizer step to all variables. It returns the loss value.
func (g *Graph) Minimize(loss *Node, opt Optimizer, feeds ...Feed) (float64, error) {
	if err := g.Run(feeds...); err != nil {
		return 0, err
	}
	if err := g.Backward(loss); err != nil {
		return 0, err
	}
	opt.Step(g.variables)
	return loss.value.Item(), nil
}

// Summary returns a human-readable listing of the graph, one node per line,
// sorted by id. Intended for debugging.
func (g *Graph) Summary() string {
	ids := make([]int, len(g.nodes))
	for i := range ids {
		ids[i] = i
	}
	sort.Ints(ids)
	s := ""
	for _, id := range ids {
		n := g.nodes[id]
		shape := "?"
		if n.value != nil {
			shape = fmt.Sprintf("%v", n.value.Shape())
		}
		s += fmt.Sprintf("#%d %-12s %-20s %s\n", n.id, n.kind, n.name, shape)
	}
	return s
}
