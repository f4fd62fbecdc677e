package stsparql

func (e *Evaluator) applyUnary(op string, x Value) Value {
	switch op {
	case "!":
		b, err := x.effectiveBool()
		if err != nil {
			// !bound-style patterns rely on error-free handling of
			// unbound: SPARQL defines !E as error when E is an error, but
			// bound() never errors, so this only triggers on true errors.
			return errValue("%v", err)
		}
		return boolValue(!b)
	case "-":
		if x.Kind != VNum {
			return errValue("stsparql: unary minus on non-number")
		}
		return numValue(-x.Num)
	case "+":
		if x.Kind != VNum {
			return errValue("stsparql: unary plus on non-number")
		}
		return x
	default:
		return errValue("stsparql: unknown unary operator %q", op)
	}
}

func (e *Evaluator) applyBinary(op string, l, r Value) Value {
	if l.Kind == VErr {
		return l.failed()
	}
	if r.Kind == VErr {
		return r.failed()
	}
	switch op {
	case "=", "!=":
		eq, err := l.equalValue(r)
		if err != nil {
			return errValue("%v", err)
		}
		if op == "!=" {
			eq = !eq
		}
		return boolValue(eq)
	case "<", "<=", ">", ">=":
		c, err := l.compare(r)
		if err != nil {
			return errValue("%v", err)
		}
		switch op {
		case "<":
			return boolValue(c < 0)
		case "<=":
			return boolValue(c <= 0)
		case ">":
			return boolValue(c > 0)
		default:
			return boolValue(c >= 0)
		}
	case "+", "-", "*", "/":
		if l.Kind != VNum || r.Kind != VNum {
			return errValue("stsparql: arithmetic on non-numbers")
		}
		switch op {
		case "+":
			return numValue(l.Num + r.Num)
		case "-":
			return numValue(l.Num - r.Num)
		case "*":
			return numValue(l.Num * r.Num)
		default:
			if r.Num == 0 {
				return errValue("stsparql: division by zero")
			}
			return numValue(l.Num / r.Num)
		}
	default:
		return errValue("stsparql: unknown operator %q", op)
	}
}
