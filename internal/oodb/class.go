package oodb

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/event"
)

// Attr declares one typed attribute of a class.
type Attr struct {
	Name string
	Type AttrType
}

// MethodImpl is the body of a registered method. It receives an
// invocation context bound to the current transaction, the receiver,
// and the argument list, and returns the method result.
type MethodImpl func(ctx *Ctx, self *Object, args []any) (any, error)

// Class is a class descriptor: the Go analogue of a C++ class compiled
// through the Open OODB preprocessor. Monitored reports whether the
// class is sentried; the declaration and every call site are identical
// for monitored and unmonitored classes (§6.1's transparency
// requirement) — only event delivery differs.
type Class struct {
	Name      string
	Super     string // name of the superclass, "" for roots
	Monitored bool

	attrs     []Attr
	attrIndex map[string]int
	methods   map[string]method
	// stateKeys holds each attribute's state-change spec key, by slot;
	// createKey and deleteKey are the constructor and destructor events'.
	stateKeys            []string
	createKey, deleteKey string
}

// method is a registered method body with the spec keys of its before
// and after events, resolved when the method is registered so that a
// monitored invocation formats nothing.
type method struct {
	impl MethodImpl
	keys [2]string // indexed by event.When - 1
}

// key returns the spec key of the method's when event.
func (m method) key(when event.When) string { return m.keys[when-1] }

// NewClass creates a class descriptor with the given attributes.
func NewClass(name string, attrs ...Attr) *Class {
	c := &Class{
		Name:      name,
		attrs:     attrs,
		attrIndex: make(map[string]int, len(attrs)),
		methods:   make(map[string]method),
	}
	for i, a := range attrs {
		c.attrIndex[a.Name] = i
	}
	c.resolveKeys()
	return c
}

// resolveKeys (re)computes every spec key the class's events carry from
// its current name, attributes and methods.
func (c *Class) resolveKeys() {
	c.stateKeys = make([]string, len(c.attrs))
	for i, a := range c.attrs {
		c.stateKeys[i] = event.StateSpec{Class: c.Name, Attr: a.Name}.Key()
	}
	c.createKey = event.MethodSpec{Class: c.Name, Method: MethodCreate, When: event.After}.Key()
	c.deleteKey = event.MethodSpec{Class: c.Name, Method: MethodDelete, When: event.Before}.Key()
	for name, m := range c.methods {
		c.methods[name] = c.newMethod(name, m.impl)
	}
}

func (c *Class) newMethod(name string, impl MethodImpl) method {
	return method{impl: impl, keys: [2]string{
		event.MethodSpec{Class: c.Name, Method: name, When: event.Before}.Key(),
		event.MethodSpec{Class: c.Name, Method: name, When: event.After}.Key(),
	}}
}

// Attrs returns the declared attributes in declaration order,
// including inherited ones once the class is registered.
func (c *Class) Attrs() []Attr { return c.attrs }

// AttrIndex returns the slot of the named attribute, or -1.
func (c *Class) AttrIndex(name string) int {
	if i, ok := c.attrIndex[name]; ok {
		return i
	}
	return -1
}

// Method registers (or overrides) a method body and returns the class
// for chaining.
func (c *Class) Method(name string, impl MethodImpl) *Class {
	c.methods[name] = c.newMethod(name, impl)
	return c
}

// MethodNames lists registered method names, sorted.
func (c *Class) MethodNames() []string {
	out := make([]string, 0, len(c.methods))
	for n := range c.methods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lookupMethod resolves a method by name.
func (c *Class) lookupMethod(name string) (method, bool) {
	m, ok := c.methods[name]
	return m, ok
}

// Dictionary is the data dictionary: the globally known repository of
// type information (paper §5). It registers classes and resolves
// inheritance: a subclass inherits attributes and methods from its
// superclass chain at registration time.
type Dictionary struct {
	mu      sync.RWMutex
	classes map[string]*Class
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{classes: make(map[string]*Class)}
}

// Register adds a class. If the class names a superclass, the
// superclass must already be registered; its attributes are prepended
// and its methods inherited unless overridden.
func (d *Dictionary) Register(c *Class) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.classes[c.Name]; dup {
		return fmt.Errorf("oodb: class %q already registered", c.Name)
	}
	if c.Super != "" {
		super, ok := d.classes[c.Super]
		if !ok {
			return fmt.Errorf("oodb: superclass %q of %q not registered", c.Super, c.Name)
		}
		merged := make([]Attr, 0, len(super.attrs)+len(c.attrs))
		merged = append(merged, super.attrs...)
		for _, a := range c.attrs {
			if super.AttrIndex(a.Name) >= 0 {
				return fmt.Errorf("oodb: class %q redeclares inherited attribute %q", c.Name, a.Name)
			}
			merged = append(merged, a)
		}
		c.attrs = merged
		c.attrIndex = make(map[string]int, len(merged))
		for i, a := range merged {
			c.attrIndex[a.Name] = i
		}
		for name, m := range super.methods {
			if _, overridden := c.methods[name]; !overridden {
				c.methods[name] = m
			}
		}
	}
	c.resolveKeys()
	d.classes[c.Name] = c
	return nil
}

// Lookup returns the named class.
func (d *Dictionary) Lookup(name string) (*Class, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.classes[name]
	if !ok {
		return nil, fmt.Errorf("oodb: class %q not registered", name)
	}
	return c, nil
}

// Classes lists registered class names, sorted.
func (d *Dictionary) Classes() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.classes))
	for n := range d.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsSubclassOf reports whether class sub equals or descends from super.
func (d *Dictionary) IsSubclassOf(sub, super string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for name := sub; name != ""; {
		if name == super {
			return true
		}
		c, ok := d.classes[name]
		if !ok {
			return false
		}
		name = c.Super
	}
	return false
}
