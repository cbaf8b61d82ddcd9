package rules

import (
	"fmt"

	"repro/internal/oodb"
)

// env is the variable scope a rule's condition and action evaluate in:
// one slot per declared variable, found by name. A rule declares a
// handful of variables, so a scan beats a map.
type env struct {
	ctx   *oodb.Ctx
	names []string
	vals  []slot
}

// slot is one variable's value; set is false until a firing binds it.
type slot struct {
	v   any
	set bool
}

func (ev *env) lookup(name string) (any, error) {
	for i, n := range ev.names {
		if n == name && ev.vals[i].set {
			return ev.vals[i].v, nil
		}
	}
	return nil, fmt.Errorf("rules: variable %q not bound", name)
}

func (ev *env) object(name string) (*oodb.Object, error) {
	v, err := ev.lookup(name)
	if err != nil {
		return nil, err
	}
	obj, ok := v.(*oodb.Object)
	if !ok {
		return nil, fmt.Errorf("rules: variable %q is not an object", name)
	}
	return obj, nil
}

// eval evaluates an expression to a Go value (int64, float64, string,
// bool, *oodb.Object, oodb.OID, nil).
func (ev *env) eval(e Expr) (any, error) {
	switch x := e.(type) {
	case Lit:
		return x.Val, nil
	case VarRef:
		return ev.lookup(x.Name)
	case AttrRef:
		obj, err := ev.object(x.Var)
		if err != nil {
			return nil, err
		}
		return ev.ctx.Get(obj, x.Attr)
	case CallExpr:
		obj, err := ev.object(x.Recv)
		if err != nil {
			return nil, err
		}
		args := make([]any, len(x.Args))
		for i, a := range x.Args {
			args[i], err = ev.eval(a)
			if err != nil {
				return nil, err
			}
		}
		return ev.ctx.Invoke(obj, x.Method, args...)
	case UnOp:
		v, err := ev.eval(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "not":
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("rules: not applied to %T", v)
			}
			return !b, nil
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, fmt.Errorf("rules: unary - applied to %T", v)
		}
	case BinOp:
		return ev.binop(x)
	}
	return nil, fmt.Errorf("rules: cannot evaluate %T", e)
}

func (ev *env) binop(x BinOp) (any, error) {
	// Short-circuit boolean operators.
	if x.Op == "and" || x.Op == "or" {
		l, err := ev.eval(x.L)
		if err != nil {
			return nil, err
		}
		lb, ok := l.(bool)
		if !ok {
			return nil, fmt.Errorf("rules: %s applied to %T", x.Op, l)
		}
		if x.Op == "and" && !lb {
			return false, nil
		}
		if x.Op == "or" && lb {
			return true, nil
		}
		r, err := ev.eval(x.R)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(bool)
		if !ok {
			return nil, fmt.Errorf("rules: %s applied to %T", x.Op, r)
		}
		return rb, nil
	}
	l, err := ev.eval(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(x.R)
	if err != nil {
		return nil, err
	}
	// Numeric coercion: if either side is a float, compare as floats.
	lf, lIsF := toFloat(l)
	rf, rIsF := toFloat(r)
	numeric := lIsF && rIsF
	switch x.Op {
	case "+", "-", "*", "/", "%":
		if !numeric {
			if x.Op == "+" {
				if ls, ok := l.(string); ok {
					if rs, ok := r.(string); ok {
						return ls + rs, nil
					}
				}
			}
			return nil, fmt.Errorf("rules: %s applied to %T and %T", x.Op, l, r)
		}
		li, lInt := l.(int64)
		ri, rInt := r.(int64)
		if lInt && rInt {
			switch x.Op {
			case "+":
				return li + ri, nil
			case "-":
				return li - ri, nil
			case "*":
				return li * ri, nil
			case "/":
				if ri == 0 {
					return nil, fmt.Errorf("rules: division by zero")
				}
				return li / ri, nil
			case "%":
				if ri == 0 {
					return nil, fmt.Errorf("rules: modulo by zero")
				}
				return li % ri, nil
			}
		}
		switch x.Op {
		case "+":
			return lf + rf, nil
		case "-":
			return lf - rf, nil
		case "*":
			return lf * rf, nil
		case "/":
			if rf == 0 {
				return nil, fmt.Errorf("rules: division by zero")
			}
			return lf / rf, nil
		case "%":
			return nil, fmt.Errorf("rules: %% needs integers")
		}
	case "<", "<=", ">", ">=":
		if numeric {
			switch x.Op {
			case "<":
				return lf < rf, nil
			case "<=":
				return lf <= rf, nil
			case ">":
				return lf > rf, nil
			case ">=":
				return lf >= rf, nil
			}
		}
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				switch x.Op {
				case "<":
					return ls < rs, nil
				case "<=":
					return ls <= rs, nil
				case ">":
					return ls > rs, nil
				case ">=":
					return ls >= rs, nil
				}
			}
		}
		return nil, fmt.Errorf("rules: %s applied to %T and %T", x.Op, l, r)
	case "==", "!=":
		eq := valuesEqual(l, r)
		if x.Op == "==" {
			return eq, nil
		}
		return !eq, nil
	}
	return nil, fmt.Errorf("rules: unknown operator %q", x.Op)
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}

func valuesEqual(l, r any) bool {
	if lf, ok := toFloat(l); ok {
		if rf, ok := toFloat(r); ok {
			return lf == rf
		}
	}
	if lo, ok := l.(*oodb.Object); ok {
		if ro, ok := r.(*oodb.Object); ok {
			return lo.OID() == ro.OID()
		}
	}
	return l == r
}

// exec runs an action statement.
func (ev *env) exec(s Stmt) error {
	switch x := s.(type) {
	case CallStmt:
		_, err := ev.eval(x.Call)
		return err
	case SetStmt:
		obj, err := ev.object(x.Target.Var)
		if err != nil {
			return err
		}
		v, err := ev.eval(x.Value)
		if err != nil {
			return err
		}
		return ev.ctx.Set(obj, x.Target.Attr, v)
	case AbortStmt:
		return fmt.Errorf("rules: %s", x.Message)
	}
	return fmt.Errorf("rules: cannot execute %T", s)
}
