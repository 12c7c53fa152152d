//! Type checker and AST → HIR lowering for the jay guest language.
//!
//! Semantics follow Java where the two languages overlap: nominal
//! subtyping with single inheritance, invariant generics erased at compile
//! time (class-level type parameters only), virtual dispatch, checked
//! downcasts, and `null` as a bottom reference type. Deliberate
//! simplifications, documented here and in the crate README:
//!
//! * no method overloading (one method per name per class; constructors
//!   are named after the class),
//! * no static fields, interfaces, or `super(...)` constructor chaining
//!   (superclass constructors are not implicitly invoked; all fields are
//!   zero-initialized at allocation),
//! * locals are default-initialized (`0`, `false`, `null`) instead of
//!   requiring definite assignment,
//! * `throw` may raise any value; `catch` matches by runtime type and
//!   rethrows on mismatch.

use std::collections::HashMap;

use crate::ast::{self, BinOp, Expr, Stmt, TypeExpr, UnOp};
use crate::bytecode::{ClassId, ElemKind, ErasedType, FieldId, FuncId};
use crate::error::{CompileError, Phase, Span};
use crate::hir::{CatchKind, HExpr, HFunction, HStmt, LocalSlot};

/// A resolved (pre-erasure) type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// `int`.
    Int,
    /// `boolean`.
    Bool,
    /// `void`.
    Void,
    /// The type of `null`.
    Null,
    /// The built-in top reference type.
    Object,
    /// A class instantiation.
    Class(ClassId, Vec<Ty>),
    /// A class type parameter of the enclosing class (by index).
    Var(u16),
    /// An array type.
    Array(Box<Ty>),
}

impl Ty {
    /// Whether the type is a reference type (assignable from `null`).
    pub fn is_ref(&self) -> bool {
        matches!(
            self,
            Ty::Null | Ty::Object | Ty::Class(..) | Ty::Var(_) | Ty::Array(_)
        )
    }

    fn subst(&self, args: &[Ty]) -> Ty {
        match self {
            Ty::Var(i) => args.get(*i as usize).cloned().unwrap_or(Ty::Object),
            Ty::Class(c, targs) => Ty::Class(*c, targs.iter().map(|t| t.subst(args)).collect()),
            Ty::Array(inner) => Ty::Array(Box::new(inner.subst(args))),
            other => other.clone(),
        }
    }
}

/// Per-class semantic information gathered during collection.
#[derive(Debug, Clone)]
pub struct ClassSig {
    /// Class name.
    pub name: String,
    /// Number of type parameters.
    pub n_type_params: u16,
    /// Superclass as a type over this class's own type variables.
    pub superclass: Option<Ty>,
    /// Fields declared directly by this class.
    pub own_fields: Vec<FieldId>,
    /// Methods declared directly by this class (including the ctor).
    pub own_methods: Vec<FuncId>,
    /// Full field layout (inherited first); slot = index.
    pub field_layout: Vec<FieldId>,
    /// Virtual table: vslot -> implementing function.
    pub vtable: Vec<FuncId>,
    /// Constructor, if declared.
    pub ctor: Option<FuncId>,
    /// Source span.
    pub span: Span,
}

/// Per-field semantic information.
#[derive(Debug, Clone)]
pub struct FieldSig {
    /// Field name.
    pub name: String,
    /// Declaring class.
    pub class: ClassId,
    /// Declared type over the declaring class's type variables.
    pub ty: Ty,
    /// Object layout slot.
    pub slot: u16,
}

/// Per-method semantic information.
#[derive(Debug, Clone)]
pub struct MethodSig {
    /// Qualified name `Class.method`.
    pub qualified: String,
    /// Bare method name.
    pub name: String,
    /// Declaring class.
    pub class: ClassId,
    /// Whether static.
    pub is_static: bool,
    /// Whether a constructor.
    pub is_ctor: bool,
    /// Parameter types (excluding `this`).
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// Virtual slot for instance methods.
    pub vslot: Option<u16>,
    /// Source line.
    pub line: u32,
}

/// Result of type checking: signatures plus lowered function bodies.
#[derive(Debug, Clone)]
pub struct TypedProgram {
    /// Class signatures, indexed by [`ClassId`].
    pub classes: Vec<ClassSig>,
    /// Field signatures, indexed by [`FieldId`].
    pub fields: Vec<FieldSig>,
    /// Method signatures, indexed by [`FuncId`].
    pub methods: Vec<MethodSig>,
    /// Lowered bodies, indexed by [`FuncId`].
    pub bodies: Vec<HFunction>,
    /// The `Main.main` entry point.
    pub entry: FuncId,
}

/// Type checks `program` and lowers it to HIR.
///
/// # Errors
///
/// Returns the first semantic error found (unknown names, type mismatches,
/// missing `Main.main`, inheritance cycles, ...).
pub fn check(program: &ast::Program) -> Result<TypedProgram, CompileError> {
    let mut checker = Checker::collect(program)?;
    let bodies = checker.check_bodies(program)?;
    let entry = checker.find_entry()?;
    Ok(TypedProgram {
        classes: checker.classes,
        fields: checker.fields,
        methods: checker.methods,
        bodies,
        entry,
    })
}

fn err(message: impl Into<String>, span: Span) -> CompileError {
    CompileError::new(Phase::TypeCheck, message, Some(span))
}

struct Checker {
    classes: Vec<ClassSig>,
    fields: Vec<FieldSig>,
    methods: Vec<MethodSig>,
    class_by_name: HashMap<String, ClassId>,
}

impl Checker {
    // ------------------------------------------------------------ collection

    fn collect(program: &ast::Program) -> Result<Self, CompileError> {
        let mut class_by_name = HashMap::new();
        for (i, class) in program.classes.iter().enumerate() {
            if class.name == "Object" {
                return Err(err("cannot redeclare built-in class Object", class.span));
            }
            if class_by_name
                .insert(class.name.clone(), ClassId(i as u32))
                .is_some()
            {
                return Err(err(format!("duplicate class {}", class.name), class.span));
            }
        }

        let mut checker = Checker {
            classes: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
            class_by_name,
        };

        // First pass: class stubs (so forward references resolve), then
        // superclass types.
        for class in &program.classes {
            checker.classes.push(ClassSig {
                name: class.name.clone(),
                n_type_params: class.type_params.len() as u16,
                superclass: None,
                own_fields: Vec::new(),
                own_methods: Vec::new(),
                field_layout: Vec::new(),
                vtable: Vec::new(),
                ctor: None,
                span: class.span,
            });
        }
        for (i, class) in program.classes.iter().enumerate() {
            let type_params: HashMap<&str, u16> = class
                .type_params
                .iter()
                .enumerate()
                .map(|(j, p)| (p.as_str(), j as u16))
                .collect();
            let superclass = match &class.superclass {
                None => None,
                Some(te) => {
                    let ty = checker.resolve_type(te, &type_params, class.span)?;
                    match ty {
                        Ty::Class(..) => Some(ty),
                        Ty::Object => None,
                        _ => return Err(err("superclass must be a class type", class.span)),
                    }
                }
            };
            checker.classes[i].superclass = superclass;
        }

        checker.reject_inheritance_cycles(program)?;

        // Second pass: fields and method signatures.
        for (i, class) in program.classes.iter().enumerate() {
            let cid = ClassId(i as u32);
            let type_params: HashMap<&str, u16> = class
                .type_params
                .iter()
                .enumerate()
                .map(|(j, p)| (p.as_str(), j as u16))
                .collect();

            for field in &class.fields {
                let ty = checker.resolve_type(&field.ty, &type_params, field.span)?;
                if matches!(ty, Ty::Void) {
                    return Err(err("field cannot have type void", field.span));
                }
                let fid = FieldId(checker.fields.len() as u32);
                checker.fields.push(FieldSig {
                    name: field.name.clone(),
                    class: cid,
                    ty,
                    slot: 0, // fixed up during layout
                });
                checker.classes[i].own_fields.push(fid);
            }

            for method in &class.methods {
                let mut params = Vec::new();
                for p in &method.params {
                    let ty = checker.resolve_type(&p.ty, &type_params, p.span)?;
                    if matches!(ty, Ty::Void) {
                        return Err(err("parameter cannot have type void", p.span));
                    }
                    params.push(ty);
                }
                let ret = checker.resolve_type(&method.ret, &type_params, method.span)?;
                let mid = FuncId(checker.methods.len() as u32);
                checker.methods.push(MethodSig {
                    qualified: format!("{}.{}", class.name, method.name),
                    name: method.name.clone(),
                    class: cid,
                    is_static: method.is_static,
                    is_ctor: method.is_ctor,
                    params,
                    ret,
                    vslot: None,
                    line: method.span.line,
                });
                checker.classes[i].own_methods.push(mid);
                if method.is_ctor {
                    if checker.classes[i].ctor.is_some() {
                        return Err(err(
                            format!("class {} declares multiple constructors", class.name),
                            method.span,
                        ));
                    }
                    checker.classes[i].ctor = Some(mid);
                }
            }

            // Reject duplicate member names within the class.
            let mut seen = HashMap::new();
            for &fid in &checker.classes[i].own_fields {
                let name = checker.fields[fid.index()].name.clone();
                if seen.insert(name.clone(), ()).is_some() {
                    return Err(err(
                        format!("duplicate field {} in class {}", name, class.name),
                        class.span,
                    ));
                }
            }
            let mut seen_m = HashMap::new();
            for &mid in &checker.classes[i].own_methods {
                let sig = &checker.methods[mid.index()];
                if sig.is_ctor {
                    continue;
                }
                if seen_m.insert(sig.name.clone(), ()).is_some() {
                    return Err(err(
                        format!(
                            "duplicate method {} in class {} (overloading is not supported)",
                            sig.name, class.name
                        ),
                        class.span,
                    ));
                }
            }
        }

        checker.build_layouts_and_vtables(program)?;
        Ok(checker)
    }

    fn reject_inheritance_cycles(&self, program: &ast::Program) -> Result<(), CompileError> {
        for start in 0..self.classes.len() {
            let mut cur = self.superclass_id(ClassId(start as u32));
            let mut steps = 0;
            while let Some(c) = cur {
                if c.index() == start {
                    return Err(err(
                        format!("inheritance cycle involving {}", self.classes[start].name),
                        program.classes[start].span,
                    ));
                }
                steps += 1;
                if steps > self.classes.len() {
                    break;
                }
                cur = self.superclass_id(c);
            }
        }
        Ok(())
    }

    fn superclass_id(&self, c: ClassId) -> Option<ClassId> {
        match &self.classes[c.index()].superclass {
            Some(Ty::Class(s, _)) => Some(*s),
            _ => None,
        }
    }

    /// Ancestors from the root down to `c` (inclusive).
    fn ancestry(&self, c: ClassId) -> Vec<ClassId> {
        let mut chain = vec![c];
        let mut cur = self.superclass_id(c);
        while let Some(s) = cur {
            chain.push(s);
            cur = self.superclass_id(s);
        }
        chain.reverse();
        chain
    }

    fn build_layouts_and_vtables(&mut self, program: &ast::Program) -> Result<(), CompileError> {
        for i in 0..self.classes.len() {
            let cid = ClassId(i as u32);
            let chain = self.ancestry(cid);

            // Field layout: inherited first, then own; reject shadowing.
            let mut layout: Vec<FieldId> = Vec::new();
            let mut names: HashMap<String, ()> = HashMap::new();
            for &ancestor in &chain {
                for &fid in &self.classes[ancestor.index()].own_fields {
                    let name = self.fields[fid.index()].name.clone();
                    if names.insert(name.clone(), ()).is_some() {
                        return Err(err(
                            format!(
                                "field {} in class {} shadows an inherited field",
                                name, self.classes[i].name
                            ),
                            program.classes[i].span,
                        ));
                    }
                    layout.push(fid);
                }
            }
            // Record slots on the declaring entries (slots are stable down
            // the hierarchy because layout prefixes are shared).
            for (slot, &fid) in layout.iter().enumerate() {
                self.fields[fid.index()].slot = slot as u16;
            }
            self.classes[i].field_layout = layout;

            // Vtable: inherited methods, overridden in place.
            let mut vtable: Vec<FuncId> = Vec::new();
            let mut vslot_by_name: HashMap<String, u16> = HashMap::new();
            for &ancestor in &chain {
                for &mid in &self.classes[ancestor.index()].own_methods.clone() {
                    let sig = self.methods[mid.index()].clone();
                    if sig.is_static || sig.is_ctor {
                        continue;
                    }
                    if let Some(&slot) = vslot_by_name.get(&sig.name) {
                        // Override: the erased signature must match, or a
                        // virtual call through the base declaration could
                        // pass values of the wrong type (jay has no
                        // bridge methods).
                        let base = &self.methods[vtable[slot as usize].index()];
                        if base.params.len() != sig.params.len() {
                            return Err(err(
                                format!("override of {} changes parameter count", sig.qualified),
                                program.classes[i].span,
                            ));
                        }
                        let same_erasure = base
                            .params
                            .iter()
                            .zip(&sig.params)
                            .all(|(a, b)| erase(a) == erase(b))
                            && erase(&base.ret) == erase(&sig.ret);
                        if !same_erasure {
                            return Err(err(
                                format!(
                                    "override of {} changes the erased signature",
                                    sig.qualified
                                ),
                                program.classes[i].span,
                            ));
                        }
                        vtable[slot as usize] = mid;
                        self.methods[mid.index()].vslot = Some(slot);
                    } else {
                        let slot = vtable.len() as u16;
                        vslot_by_name.insert(sig.name.clone(), slot);
                        vtable.push(mid);
                        self.methods[mid.index()].vslot = Some(slot);
                    }
                }
            }
            self.classes[i].vtable = vtable;
        }
        Ok(())
    }

    // ------------------------------------------------------------- types

    fn resolve_type(
        &self,
        te: &TypeExpr,
        type_params: &HashMap<&str, u16>,
        span: Span,
    ) -> Result<Ty, CompileError> {
        Ok(match te {
            TypeExpr::Int => Ty::Int,
            TypeExpr::Bool => Ty::Bool,
            TypeExpr::Void => Ty::Void,
            TypeExpr::Array(inner) => {
                Ty::Array(Box::new(self.resolve_type(inner, type_params, span)?))
            }
            TypeExpr::Named(name, args) => {
                if name == "Object" {
                    if !args.is_empty() {
                        return Err(err("Object takes no type arguments", span));
                    }
                    return Ok(Ty::Object);
                }
                if let Some(&idx) = type_params.get(name.as_str()) {
                    if !args.is_empty() {
                        return Err(err("type variables take no type arguments", span));
                    }
                    return Ok(Ty::Var(idx));
                }
                let cid = *self
                    .class_by_name
                    .get(name)
                    .ok_or_else(|| err(format!("unknown type {name}"), span))?;
                let n = self.classes[cid.index()].n_type_params as usize;
                let targs = if args.is_empty() {
                    // Raw type: fill with Object (Java raw-type erasure).
                    vec![Ty::Object; n]
                } else {
                    if args.len() != n {
                        return Err(err(
                            format!("{} expects {} type arguments, got {}", name, n, args.len()),
                            span,
                        ));
                    }
                    args.iter()
                        .map(|a| self.resolve_type(a, type_params, span))
                        .collect::<Result<Vec<_>, _>>()?
                };
                for t in &targs {
                    if !t.is_ref() {
                        return Err(err("type arguments must be reference types", span));
                    }
                }
                Ty::Class(cid, targs)
            }
        })
    }

    /// Whether `sub` is assignable to `sup`.
    fn is_subtype(&self, sub: &Ty, sup: &Ty) -> bool {
        match (sub, sup) {
            _ if sub == sup => true,
            (Ty::Null, s) if s.is_ref() => true,
            (s, Ty::Object) if s.is_ref() => true,
            (Ty::Class(c, args), Ty::Class(d, dargs)) => {
                // Walk up the chain with substitution.
                let mut cur = Ty::Class(*c, args.clone());
                loop {
                    if let Ty::Class(cc, cargs) = &cur {
                        if cc == d {
                            return cargs == dargs || dargs.iter().all(|t| *t == Ty::Object);
                        }
                        match &self.classes[cc.index()].superclass {
                            Some(sup_ty) => cur = sup_ty.subst(cargs),
                            None => return false,
                        }
                    } else {
                        return false;
                    }
                }
            }
            _ => false,
        }
    }

    fn elem_kind(&self, ty: &Ty) -> ElemKind {
        match ty {
            Ty::Int => ElemKind::Int,
            Ty::Bool => ElemKind::Bool,
            _ => ElemKind::Ref,
        }
    }

    fn catch_kind(&self, ty: &Ty, span: Span) -> Result<CatchKind, CompileError> {
        Ok(match ty {
            Ty::Int => CatchKind::Int,
            Ty::Bool => CatchKind::Bool,
            Ty::Object | Ty::Var(_) => CatchKind::AnyRef,
            Ty::Class(c, _) => CatchKind::Class(*c),
            Ty::Array(_) => CatchKind::Array,
            _ => return Err(err("invalid catch/cast type", span)),
        })
    }

    /// Looks up `name` as a field of `recv` (walking up the hierarchy with
    /// substitution). Returns the field and its substituted type.
    fn lookup_field(&self, recv: &Ty, name: &str) -> Option<(FieldId, Ty)> {
        let mut cur = recv.clone();
        loop {
            let (cid, args) = match &cur {
                Ty::Class(c, a) => (*c, a.clone()),
                _ => return None,
            };
            for &fid in &self.classes[cid.index()].own_fields {
                let sig = &self.fields[fid.index()];
                if sig.name == name {
                    return Some((fid, sig.ty.subst(&args)));
                }
            }
            match &self.classes[cid.index()].superclass {
                Some(sup) => cur = sup.subst(&args),
                None => return None,
            }
        }
    }

    /// Looks up `name` as a method of `recv`; returns the declaration and
    /// substituted parameter/return types.
    fn lookup_method(&self, recv: &Ty, name: &str) -> Option<(FuncId, Vec<Ty>, Ty)> {
        let mut cur = recv.clone();
        loop {
            let (cid, args) = match &cur {
                Ty::Class(c, a) => (*c, a.clone()),
                _ => return None,
            };
            for &mid in &self.classes[cid.index()].own_methods {
                let sig = &self.methods[mid.index()];
                if sig.name == name && !sig.is_ctor {
                    let params = sig.params.iter().map(|t| t.subst(&args)).collect();
                    let ret = sig.ret.subst(&args);
                    return Some((mid, params, ret));
                }
            }
            match &self.classes[cid.index()].superclass {
                Some(sup) => cur = sup.subst(&args),
                None => return None,
            }
        }
    }

    fn find_entry(&self) -> Result<FuncId, CompileError> {
        let main_class = self
            .class_by_name
            .get("Main")
            .ok_or_else(|| err("program must declare a Main class", Span::default()))?;
        for &mid in &self.classes[main_class.index()].own_methods {
            let sig = &self.methods[mid.index()];
            if sig.name == "main" && sig.is_static && sig.params.is_empty() {
                return Ok(mid);
            }
        }
        Err(err(
            "class Main must declare a static main() method with no parameters",
            Span::default(),
        ))
    }

    // ------------------------------------------------------------- bodies

    fn check_bodies(&mut self, program: &ast::Program) -> Result<Vec<HFunction>, CompileError> {
        let mut bodies = Vec::new();
        for (i, class) in program.classes.iter().enumerate() {
            let cid = ClassId(i as u32);
            for method in &class.methods {
                let mid = {
                    // own_methods are in declaration order.
                    let idx = class
                        .methods
                        .iter()
                        .position(|m| std::ptr::eq(m, method))
                        .expect("method is in its own class");
                    self.classes[i].own_methods[idx]
                };
                let body = BodyChecker::new(self, cid, mid, class, method).check()?;
                bodies.push(body);
            }
        }
        // bodies were pushed in FuncId order because methods were collected
        // in the same order.
        bodies.sort_by_key(|b| b.id.index());
        Ok(bodies)
    }
}

struct BodyChecker<'a> {
    global: &'a Checker,
    class: ClassId,
    method: FuncId,
    type_params: HashMap<String, u16>,
    scopes: Vec<HashMap<String, (LocalSlot, Ty)>>,
    next_slot: u16,
    max_slot: u16,
    loop_depth: u32,
    decl: &'a ast::MethodDecl,
}

impl<'a> BodyChecker<'a> {
    fn new(
        global: &'a Checker,
        class: ClassId,
        method: FuncId,
        class_decl: &'a ast::ClassDecl,
        decl: &'a ast::MethodDecl,
    ) -> Self {
        let type_params = class_decl
            .type_params
            .iter()
            .enumerate()
            .map(|(j, p)| (p.clone(), j as u16))
            .collect();
        BodyChecker {
            global,
            class,
            method,
            type_params,
            scopes: vec![HashMap::new()],
            next_slot: 0,
            max_slot: 0,
            loop_depth: 0,
            decl,
        }
    }

    fn sig(&self) -> &MethodSig {
        &self.global.methods[self.method.index()]
    }

    fn this_ty(&self) -> Ty {
        let n = self.global.classes[self.class.index()].n_type_params;
        Ty::Class(self.class, (0..n).map(Ty::Var).collect())
    }

    fn alloc_slot(&mut self, name: &str, ty: Ty) -> LocalSlot {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name.to_owned(), (slot, ty));
        slot
    }

    fn lookup_local(&self, name: &str) -> Option<(LocalSlot, Ty)> {
        for scope in self.scopes.iter().rev() {
            if let Some(entry) = scope.get(name) {
                return Some(entry.clone());
            }
        }
        None
    }

    fn resolve_type(&self, te: &TypeExpr, span: Span) -> Result<Ty, CompileError> {
        let params: HashMap<&str, u16> = self
            .type_params
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        self.global.resolve_type(te, &params, span)
    }

    fn check(mut self) -> Result<HFunction, CompileError> {
        let sig = self.sig().clone();
        if !sig.is_static {
            self.alloc_slot("this", self.this_ty());
        }
        for (param, ty) in self.decl.params.iter().zip(sig.params.iter()) {
            self.alloc_slot(&param.name, ty.clone());
        }
        let n_params = self.next_slot;

        let body = self.check_block(&self.decl.body)?;

        if sig.ret != Ty::Void && !stmts_return(&body) {
            return Err(err(
                format!(
                    "method {} can complete without returning a value",
                    sig.qualified
                ),
                self.decl.span,
            ));
        }

        Ok(HFunction {
            id: self.method,
            name: sig.qualified.clone(),
            class: self.class,
            is_static: sig.is_static,
            is_ctor: sig.is_ctor,
            n_params,
            n_locals: self.max_slot,
            returns_void: sig.ret == Ty::Void,
            body,
            line: self.decl.span.line,
        })
    }

    fn check_block(&mut self, block: &ast::Block) -> Result<Vec<HStmt>, CompileError> {
        self.scopes.push(HashMap::new());
        let saved = self.next_slot;
        let mut out = Vec::new();
        for stmt in &block.stmts {
            self.check_stmt(stmt, &mut out)?;
        }
        self.scopes.pop();
        self.next_slot = saved;
        Ok(out)
    }

    fn check_stmt(&mut self, stmt: &Stmt, out: &mut Vec<HStmt>) -> Result<(), CompileError> {
        match stmt {
            Stmt::VarDecl {
                ty,
                name,
                init,
                span,
            } => {
                let ty = self.resolve_type(ty, *span)?;
                if ty == Ty::Void {
                    return Err(err("variable cannot have type void", *span));
                }
                let value = match init {
                    Some(e) => {
                        let (he, ety) = self.check_expr(e)?;
                        self.require_assignable(&ety, &ty, e.span())?;
                        he
                    }
                    None => default_value(&ty),
                };
                if self.lookup_local(name).is_some()
                    && self
                        .scopes
                        .last()
                        .expect("scope stack is never empty")
                        .contains_key(name)
                {
                    return Err(err(format!("duplicate variable {name}"), *span));
                }
                let slot = self.alloc_slot(name, ty);
                out.push(HStmt::StoreLocal {
                    slot,
                    value,
                    line: span.line,
                });
            }
            Stmt::Assign {
                target,
                value,
                span,
            } => {
                let (hv, vty) = self.check_expr(value)?;
                match target {
                    Expr::Var(name, vspan) => {
                        if let Some((slot, ty)) = self.lookup_local(name) {
                            self.require_assignable(&vty, &ty, *span)?;
                            out.push(HStmt::StoreLocal {
                                slot,
                                value: hv,
                                line: span.line,
                            });
                        } else if !self.sig().is_static {
                            // Implicit this.field = v
                            let recv = self.this_ty();
                            let (fid, fty) = self
                                .global
                                .lookup_field(&recv, name)
                                .ok_or_else(|| err(format!("unknown variable {name}"), *vspan))?;
                            self.require_assignable(&vty, &fty, *span)?;
                            out.push(HStmt::StoreField {
                                obj: HExpr::Local(0),
                                field: fid,
                                value: hv,
                                line: span.line,
                            });
                        } else {
                            return Err(err(format!("unknown variable {name}"), *vspan));
                        }
                    }
                    Expr::Field {
                        obj,
                        name,
                        span: fspan,
                    } => {
                        let (hobj, oty) = self.check_expr(obj)?;
                        let (fid, fty) = self
                            .global
                            .lookup_field(&oty, name)
                            .ok_or_else(|| err(format!("unknown field {name}"), *fspan))?;
                        self.require_assignable(&vty, &fty, *span)?;
                        out.push(HStmt::StoreField {
                            obj: hobj,
                            field: fid,
                            value: hv,
                            line: span.line,
                        });
                    }
                    Expr::Index {
                        arr,
                        idx,
                        span: ispan,
                    } => {
                        let (harr, aty) = self.check_expr(arr)?;
                        let elem = match aty {
                            Ty::Array(e) => *e,
                            other => {
                                return Err(err(
                                    format!("cannot index non-array type {other:?}"),
                                    *ispan,
                                ))
                            }
                        };
                        let (hidx, ity) = self.check_expr(idx)?;
                        self.require(&ity, &Ty::Int, idx.span())?;
                        self.require_assignable(&vty, &elem, *span)?;
                        out.push(HStmt::StoreIndex {
                            arr: harr,
                            idx: hidx,
                            value: hv,
                            line: span.line,
                        });
                    }
                    other => {
                        return Err(err("invalid assignment target", other.span()));
                    }
                }
            }
            Stmt::If {
                cond,
                then,
                els,
                span,
            } => {
                let (hc, cty) = self.check_expr(cond)?;
                self.require(&cty, &Ty::Bool, cond.span())?;
                let hthen = self.check_block(then)?;
                let hels = match els {
                    Some(b) => self.check_block(b)?,
                    None => Vec::new(),
                };
                out.push(HStmt::If {
                    cond: hc,
                    then: hthen,
                    els: hels,
                    line: span.line,
                });
            }
            Stmt::While { cond, body, span } => {
                let (hc, cty) = self.check_expr(cond)?;
                self.require(&cty, &Ty::Bool, cond.span())?;
                self.loop_depth += 1;
                let hbody = self.check_block(body)?;
                self.loop_depth -= 1;
                out.push(HStmt::Loop {
                    cond: hc,
                    body: hbody,
                    update: Vec::new(),
                    line: span.line,
                });
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                span,
            } => {
                // The init's declarations scope over the whole loop.
                self.scopes.push(HashMap::new());
                let saved = self.next_slot;
                if let Some(init) = init {
                    self.check_stmt(init, out)?;
                }
                let hcond = match cond {
                    Some(c) => {
                        let (hc, cty) = self.check_expr(c)?;
                        self.require(&cty, &Ty::Bool, c.span())?;
                        hc
                    }
                    None => HExpr::Bool(true),
                };
                self.loop_depth += 1;
                let hbody = self.check_block(body)?;
                let mut hupdate = Vec::new();
                if let Some(u) = update {
                    self.check_stmt(u, &mut hupdate)?;
                }
                self.loop_depth -= 1;
                self.scopes.pop();
                self.next_slot = saved;
                out.push(HStmt::Loop {
                    cond: hcond,
                    body: hbody,
                    update: hupdate,
                    line: span.line,
                });
            }
            Stmt::Return { value, span } => {
                let ret = self.sig().ret.clone();
                let hv = match (value, &ret) {
                    (None, Ty::Void) => None,
                    (None, _) => {
                        return Err(err("missing return value", *span));
                    }
                    (Some(_), Ty::Void) => {
                        return Err(err("void method cannot return a value", *span));
                    }
                    (Some(e), _) => {
                        let (he, ety) = self.check_expr(e)?;
                        self.require_assignable(&ety, &ret, e.span())?;
                        Some(he)
                    }
                };
                out.push(HStmt::Return {
                    value: hv,
                    line: span.line,
                });
            }
            Stmt::ExprStmt { expr, .. } => {
                let (he, _) = self.check_expr(expr)?;
                out.push(HStmt::Expr(he));
            }
            Stmt::Block(b) => {
                let stmts = self.check_block(b)?;
                out.extend(stmts);
            }
            Stmt::Break { span } => {
                if self.loop_depth == 0 {
                    return Err(err("break outside loop", *span));
                }
                out.push(HStmt::Break);
            }
            Stmt::Continue { span } => {
                if self.loop_depth == 0 {
                    return Err(err("continue outside loop", *span));
                }
                out.push(HStmt::Continue);
            }
            Stmt::Throw { value, span } => {
                let (hv, vty) = self.check_expr(value)?;
                if vty == Ty::Void {
                    return Err(err("cannot throw void", *span));
                }
                out.push(HStmt::Throw {
                    value: hv,
                    line: span.line,
                });
            }
            Stmt::Lock { obj, span } => {
                let (hobj, oty) = self.check_expr(obj)?;
                if !oty.is_ref() {
                    return Err(err("lock requires a reference operand", *span));
                }
                out.push(HStmt::Lock {
                    obj: hobj,
                    line: span.line,
                });
            }
            Stmt::Unlock { obj, span } => {
                let (hobj, oty) = self.check_expr(obj)?;
                if !oty.is_ref() {
                    return Err(err("unlock requires a reference operand", *span));
                }
                out.push(HStmt::Unlock {
                    obj: hobj,
                    line: span.line,
                });
            }
            Stmt::Try {
                body,
                catch_name,
                catch_ty,
                handler,
                span,
            } => {
                let hbody = self.check_block(body)?;
                let cty = self.resolve_type(catch_ty, *span)?;
                let kind = self.global.catch_kind(&cty, *span)?;
                self.scopes.push(HashMap::new());
                let saved = self.next_slot;
                let slot = self.alloc_slot(catch_name, cty);
                let hhandler = self.check_block(handler)?;
                self.scopes.pop();
                self.next_slot = saved;
                out.push(HStmt::Try {
                    body: hbody,
                    catch: kind,
                    catch_slot: slot,
                    handler: hhandler,
                });
            }
        }
        Ok(())
    }

    fn require(&self, actual: &Ty, expected: &Ty, span: Span) -> Result<(), CompileError> {
        if actual == expected {
            Ok(())
        } else {
            Err(err(
                format!("expected {expected:?}, found {actual:?}"),
                span,
            ))
        }
    }

    fn require_assignable(
        &self,
        actual: &Ty,
        expected: &Ty,
        span: Span,
    ) -> Result<(), CompileError> {
        if self.global.is_subtype(actual, expected) {
            Ok(())
        } else {
            Err(err(
                format!("{actual:?} is not assignable to {expected:?}"),
                span,
            ))
        }
    }

    // --------------------------------------------------------- expressions

    fn check_expr(&mut self, expr: &Expr) -> Result<(HExpr, Ty), CompileError> {
        match expr {
            Expr::IntLit(v, _) => Ok((HExpr::Int(*v), Ty::Int)),
            Expr::BoolLit(v, _) => Ok((HExpr::Bool(*v), Ty::Bool)),
            Expr::Null(_) => Ok((HExpr::Null, Ty::Null)),
            Expr::This(span) => {
                if self.sig().is_static {
                    return Err(err("this used in a static method", *span));
                }
                Ok((HExpr::Local(0), self.this_ty()))
            }
            Expr::Var(name, span) => {
                if let Some((slot, ty)) = self.lookup_local(name) {
                    return Ok((HExpr::Local(slot), ty));
                }
                if !self.sig().is_static {
                    let recv = self.this_ty();
                    if let Some((fid, fty)) = self.global.lookup_field(&recv, name) {
                        return Ok((
                            HExpr::GetField {
                                obj: Box::new(HExpr::Local(0)),
                                field: fid,
                                line: span.line,
                            },
                            fty,
                        ));
                    }
                }
                Err(err(format!("unknown variable {name}"), *span))
            }
            Expr::Field { obj, name, span } => {
                // `ClassName.x` is rejected (no static fields); a class name
                // used as a receiver is only legal for calls.
                let (hobj, oty) = self.check_expr(obj)?;
                if name == "length" {
                    if let Ty::Array(_) = oty {
                        return Ok((
                            HExpr::ArrayLen {
                                arr: Box::new(hobj),
                                line: span.line,
                            },
                            Ty::Int,
                        ));
                    }
                }
                let (fid, fty) = self
                    .global
                    .lookup_field(&oty, name)
                    .ok_or_else(|| err(format!("unknown field {name} on {oty:?}"), *span))?;
                Ok((
                    HExpr::GetField {
                        obj: Box::new(hobj),
                        field: fid,
                        line: span.line,
                    },
                    fty,
                ))
            }
            Expr::Index { arr, idx, span } => {
                let (harr, aty) = self.check_expr(arr)?;
                let elem = match aty {
                    Ty::Array(e) => *e,
                    other => return Err(err(format!("cannot index non-array {other:?}"), *span)),
                };
                let (hidx, ity) = self.check_expr(idx)?;
                self.require(&ity, &Ty::Int, idx.span())?;
                Ok((
                    HExpr::GetIndex {
                        arr: Box::new(harr),
                        idx: Box::new(hidx),
                        line: span.line,
                    },
                    elem,
                ))
            }
            Expr::Length { arr, span } => {
                let (harr, aty) = self.check_expr(arr)?;
                if !matches!(aty, Ty::Array(_)) {
                    return Err(err("length of non-array", *span));
                }
                Ok((
                    HExpr::ArrayLen {
                        arr: Box::new(harr),
                        line: span.line,
                    },
                    Ty::Int,
                ))
            }
            Expr::Call {
                obj,
                name,
                args,
                span,
            } => {
                // A receiver that is a bare class name means a static call.
                if let Expr::Var(class_name, _) = obj.as_ref() {
                    if self.lookup_local(class_name).is_none() {
                        if let Some(&cid) = self.global.class_by_name.get(class_name) {
                            return self.check_static_call(cid, name, args, *span);
                        }
                    }
                }
                let (hobj, oty) = self.check_expr(obj)?;
                let (mid, params, ret) = self
                    .global
                    .lookup_method(&oty, name)
                    .ok_or_else(|| err(format!("unknown method {name} on {oty:?}"), *span))?;
                let sig = &self.global.methods[mid.index()];
                if sig.is_static {
                    return Err(err(
                        format!("method {name} is static; call it via the class name"),
                        *span,
                    ));
                }
                let hargs = self.check_args(args, &params, *span)?;
                let mut all = vec![hobj];
                all.extend(hargs);
                Ok((
                    HExpr::CallVirtual {
                        func: mid,
                        args: all,
                        line: span.line,
                    },
                    ret,
                ))
            }
            Expr::StaticCall {
                class,
                name,
                args,
                span,
            } => {
                if class.is_none() {
                    // Builtins.
                    match name.as_str() {
                        "print" => {
                            if args.len() != 1 {
                                return Err(err("print takes one argument", *span));
                            }
                            let (ha, aty) = self.check_expr(&args[0])?;
                            self.require(&aty, &Ty::Int, args[0].span())?;
                            return Ok((
                                HExpr::Print {
                                    arg: Box::new(ha),
                                    line: span.line,
                                },
                                Ty::Void,
                            ));
                        }
                        "readInput" => {
                            if !args.is_empty() {
                                return Err(err("readInput takes no arguments", *span));
                            }
                            return Ok((HExpr::ReadInput { line: span.line }, Ty::Int));
                        }
                        _ => {}
                    }
                }
                let cid = match class {
                    Some(name) => *self
                        .global
                        .class_by_name
                        .get(name)
                        .ok_or_else(|| err(format!("unknown class {name}"), *span))?,
                    None => self.class,
                };
                // Unqualified call: static method of the current class, or
                // implicit this.m(...) in an instance method.
                if class.is_none() {
                    let recv = self.this_ty();
                    if let Some((mid, params, ret)) = self.global.lookup_method(&recv, name) {
                        let sig = &self.global.methods[mid.index()];
                        if !sig.is_static {
                            if self.sig().is_static {
                                return Err(err(
                                    format!(
                                        "cannot call instance method {name} from static context"
                                    ),
                                    *span,
                                ));
                            }
                            let hargs = self.check_args(args, &params, *span)?;
                            let mut all = vec![HExpr::Local(0)];
                            all.extend(hargs);
                            return Ok((
                                HExpr::CallVirtual {
                                    func: mid,
                                    args: all,
                                    line: span.line,
                                },
                                ret,
                            ));
                        }
                    }
                }
                self.check_static_call(cid, name, args, *span)
            }
            Expr::New { ty, args, span } => {
                let rty = self.resolve_type(ty, *span)?;
                let cid = match &rty {
                    Ty::Class(c, _) => *c,
                    Ty::Object => {
                        if !args.is_empty() {
                            return Err(err("Object constructor takes no arguments", *span));
                        }
                        return Err(err("cannot instantiate Object directly", *span));
                    }
                    other => {
                        return Err(err(format!("cannot instantiate {other:?}"), *span));
                    }
                };
                let ctor = self.global.classes[cid.index()].ctor;
                let hargs = match ctor {
                    Some(ctor_id) => {
                        let sig = &self.global.methods[ctor_id.index()];
                        let targs = match &rty {
                            Ty::Class(_, a) => a.clone(),
                            _ => Vec::new(),
                        };
                        let params: Vec<Ty> = sig.params.iter().map(|t| t.subst(&targs)).collect();
                        self.check_args(args, &params, *span)?
                    }
                    None => {
                        if !args.is_empty() {
                            return Err(err(
                                format!(
                                    "class {} has no constructor but arguments were given",
                                    self.global.classes[cid.index()].name
                                ),
                                *span,
                            ));
                        }
                        Vec::new()
                    }
                };
                Ok((
                    HExpr::NewObject {
                        class: cid,
                        ctor,
                        args: hargs,
                        line: span.line,
                    },
                    rty,
                ))
            }
            Expr::NewArray { elem, len, span } => {
                let ety = self.resolve_type(elem, *span)?;
                if ety == Ty::Void {
                    return Err(err("array of void", *span));
                }
                let (hlen, lty) = self.check_expr(len)?;
                self.require(&lty, &Ty::Int, len.span())?;
                Ok((
                    HExpr::NewArray {
                        elem: self.global.elem_kind(&ety),
                        len: Box::new(hlen),
                        line: span.line,
                    },
                    Ty::Array(Box::new(ety)),
                ))
            }
            Expr::ArrayLit { elem, elems, span } => {
                let ety = self.resolve_type(elem, *span)?;
                let mut helems = Vec::new();
                for e in elems {
                    let (he, t) = self.check_expr(e)?;
                    self.require_assignable(&t, &ety, e.span())?;
                    helems.push(he);
                }
                Ok((
                    HExpr::ArrayLit {
                        elem: self.global.elem_kind(&ety),
                        elems: helems,
                        line: span.line,
                    },
                    Ty::Array(Box::new(ety)),
                ))
            }
            Expr::Cast { ty, expr, span } => {
                let target = self.resolve_type(ty, *span)?;
                let (he, ety) = self.check_expr(expr)?;
                if !ety.is_ref() || !target.is_ref() {
                    return Err(err("casts apply to reference types only", *span));
                }
                let kind = self.global.catch_kind(&target, *span)?;
                Ok((
                    HExpr::Cast {
                        target: kind,
                        expr: Box::new(he),
                        line: span.line,
                    },
                    target,
                ))
            }
            Expr::InstanceOf { expr, ty, span } => {
                let target = self.resolve_type(ty, *span)?;
                let (he, ety) = self.check_expr(expr)?;
                if !ety.is_ref() {
                    return Err(err("instanceof applies to references", *span));
                }
                let kind = self.global.catch_kind(&target, *span)?;
                Ok((
                    HExpr::InstanceOf {
                        target: kind,
                        expr: Box::new(he),
                        line: span.line,
                    },
                    Ty::Bool,
                ))
            }
            Expr::Spawn {
                class,
                name,
                args,
                span,
            } => {
                let cid = match class {
                    Some(cname) => *self
                        .global
                        .class_by_name
                        .get(cname)
                        .ok_or_else(|| err(format!("unknown class {cname}"), *span))?,
                    None => self.class,
                };
                // Resolve like a static call, walking up the hierarchy.
                let mut cur = Some(cid);
                while let Some(c) = cur {
                    for &mid in &self.global.classes[c.index()].own_methods {
                        let sig = &self.global.methods[mid.index()];
                        if sig.name == *name && !sig.is_ctor {
                            if !sig.is_static {
                                return Err(err(
                                    format!("spawn target {name} must be a static method"),
                                    *span,
                                ));
                            }
                            if sig.ret != Ty::Int {
                                return Err(err(
                                    format!("spawn target {name} must return int"),
                                    *span,
                                ));
                            }
                            let params = sig.params.clone();
                            let hargs = self.check_args(args, &params, *span)?;
                            return Ok((
                                HExpr::Spawn {
                                    func: mid,
                                    args: hargs,
                                    line: span.line,
                                },
                                Ty::Int,
                            ));
                        }
                    }
                    cur = self.global.superclass_id(c);
                }
                Err(err(
                    format!(
                        "unknown spawn target {}.{}",
                        self.global.classes[cid.index()].name,
                        name
                    ),
                    *span,
                ))
            }
            Expr::Join { handle, span } => {
                let (hh, hty) = self.check_expr(handle)?;
                self.require(&hty, &Ty::Int, *span)?;
                Ok((
                    HExpr::Join {
                        handle: Box::new(hh),
                        line: span.line,
                    },
                    Ty::Int,
                ))
            }
            Expr::Unary { op, expr, span } => {
                let (he, ty) = self.check_expr(expr)?;
                let expected = match op {
                    UnOp::Neg => Ty::Int,
                    UnOp::Not => Ty::Bool,
                };
                self.require(&ty, &expected, *span)?;
                Ok((
                    HExpr::Unary {
                        op: *op,
                        expr: Box::new(he),
                    },
                    expected,
                ))
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let (hl, lty) = self.check_expr(lhs)?;
                let (hr, rty) = self.check_expr(rhs)?;
                let result = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        self.require(&lty, &Ty::Int, lhs.span())?;
                        self.require(&rty, &Ty::Int, rhs.span())?;
                        Ty::Int
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        self.require(&lty, &Ty::Int, lhs.span())?;
                        self.require(&rty, &Ty::Int, rhs.span())?;
                        Ty::Bool
                    }
                    BinOp::And | BinOp::Or => {
                        self.require(&lty, &Ty::Bool, lhs.span())?;
                        self.require(&rty, &Ty::Bool, rhs.span())?;
                        Ty::Bool
                    }
                    BinOp::Eq | BinOp::Ne => {
                        let ok = (lty == Ty::Int && rty == Ty::Int)
                            || (lty == Ty::Bool && rty == Ty::Bool)
                            || (lty.is_ref() && rty.is_ref());
                        if !ok {
                            return Err(err(format!("cannot compare {lty:?} with {rty:?}"), *span));
                        }
                        Ty::Bool
                    }
                };
                Ok((
                    HExpr::Binary {
                        op: *op,
                        lhs: Box::new(hl),
                        rhs: Box::new(hr),
                        line: span.line,
                    },
                    result,
                ))
            }
        }
    }

    fn check_static_call(
        &mut self,
        cid: ClassId,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<(HExpr, Ty), CompileError> {
        // Static methods are looked up in the class and its ancestors.
        let mut cur = Some(cid);
        while let Some(c) = cur {
            for &mid in &self.global.classes[c.index()].own_methods {
                let sig = &self.global.methods[mid.index()];
                if sig.name == name && !sig.is_ctor && sig.is_static {
                    let params = sig.params.clone();
                    let ret = sig.ret.clone();
                    let hargs = self.check_args(args, &params, span)?;
                    return Ok((
                        HExpr::CallStatic {
                            func: mid,
                            args: hargs,
                            line: span.line,
                        },
                        ret,
                    ));
                }
            }
            cur = self.global.superclass_id(c);
        }
        Err(err(
            format!(
                "unknown static method {}.{}",
                self.global.classes[cid.index()].name,
                name
            ),
            span,
        ))
    }

    fn check_args(
        &mut self,
        args: &[Expr],
        params: &[Ty],
        span: Span,
    ) -> Result<Vec<HExpr>, CompileError> {
        if args.len() != params.len() {
            return Err(err(
                format!("expected {} arguments, got {}", params.len(), args.len()),
                span,
            ));
        }
        let mut out = Vec::new();
        for (a, p) in args.iter().zip(params) {
            let (ha, aty) = self.check_expr(a)?;
            self.require_assignable(&aty, p, a.span())?;
            out.push(ha);
        }
        Ok(out)
    }
}

/// Erases a resolved type to its runtime representation. Type variables
/// and `Object` erase to the unconstrained reference type, exactly as in
/// Java's erasure of class-level generics.
pub fn erase(ty: &Ty) -> ErasedType {
    match ty {
        Ty::Int => ErasedType::Int,
        Ty::Bool => ErasedType::Bool,
        Ty::Void | Ty::Null | Ty::Object | Ty::Var(_) => ErasedType::Ref(None),
        Ty::Class(c, _) => ErasedType::Ref(Some(*c)),
        Ty::Array(inner) => ErasedType::Array(Box::new(erase(inner))),
    }
}

fn default_value(ty: &Ty) -> HExpr {
    match ty {
        Ty::Int => HExpr::Int(0),
        Ty::Bool => HExpr::Bool(false),
        _ => HExpr::Null,
    }
}

/// Conservative "cannot complete normally" analysis for missing-return
/// checking.
fn stmts_return(stmts: &[HStmt]) -> bool {
    stmts.iter().any(stmt_returns)
}

fn stmt_returns(stmt: &HStmt) -> bool {
    match stmt {
        HStmt::Return { .. } | HStmt::Throw { .. } => true,
        HStmt::If { then, els, .. } => stmts_return(then) && stmts_return(els),
        HStmt::Try { body, handler, .. } => stmts_return(body) && stmts_return(handler),
        HStmt::Loop { cond, body, .. } => {
            matches!(cond, HExpr::Bool(true)) && !contains_toplevel_break(body)
        }
        _ => false,
    }
}

/// Whether `stmts` contains a `break` that would exit the *enclosing* loop
/// (i.e. not nested inside a deeper loop).
fn contains_toplevel_break(stmts: &[HStmt]) -> bool {
    stmts.iter().any(|s| match s {
        HStmt::Break => true,
        HStmt::If { then, els, .. } => {
            contains_toplevel_break(then) || contains_toplevel_break(els)
        }
        HStmt::Try { body, handler, .. } => {
            contains_toplevel_break(body) || contains_toplevel_break(handler)
        }
        HStmt::Loop { .. } => false,
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<TypedProgram, CompileError> {
        check(&parse(src).expect("parse succeeds"))
    }

    fn check_ok(src: &str) -> TypedProgram {
        check_src(src).expect("type checks")
    }

    const MAIN: &str = "class Main { static int main() { return 0; } }";

    #[test]
    fn requires_main() {
        let e = check_src("class A {}").unwrap_err();
        assert!(e.message.contains("Main"));
    }

    #[test]
    fn accepts_minimal_main() {
        let p = check_ok(MAIN);
        assert_eq!(p.methods[p.entry.index()].name, "main");
    }

    #[test]
    fn field_layout_includes_inherited() {
        let p = check_ok(&format!(
            "{MAIN}
             class A {{ int x; }}
             class B extends A {{ int y; }}"
        ));
        let b = p.classes.iter().find(|c| c.name == "B").expect("B exists");
        assert_eq!(b.field_layout.len(), 2);
        let x = &p.fields[b.field_layout[0].index()];
        let y = &p.fields[b.field_layout[1].index()];
        assert_eq!((x.name.as_str(), x.slot), ("x", 0));
        assert_eq!((y.name.as_str(), y.slot), ("y", 1));
    }

    #[test]
    fn rejects_field_shadowing() {
        let e = check_src(&format!(
            "{MAIN}
             class A {{ int x; }}
             class B extends A {{ int x; }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("shadows"));
    }

    #[test]
    fn rejects_inheritance_cycle() {
        let e = check_src(&format!(
            "{MAIN}
             class A extends B {{ }}
             class B extends A {{ }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("cycle"));
    }

    #[test]
    fn vtable_override_shares_slot() {
        let p = check_ok(&format!(
            "{MAIN}
             class A {{ int f() {{ return 1; }} }}
             class B extends A {{ int f() {{ return 2; }} }}"
        ));
        let a = p.classes.iter().find(|c| c.name == "A").unwrap();
        let b = p.classes.iter().find(|c| c.name == "B").unwrap();
        assert_eq!(a.vtable.len(), 1);
        assert_eq!(b.vtable.len(), 1);
        assert_ne!(a.vtable[0], b.vtable[0]);
    }

    #[test]
    fn rejects_signature_changing_override() {
        // Same arity, different parameter type: type confusion through a
        // virtual call, must be rejected.
        let e = check_src(&format!(
            "{MAIN}
             class A {{ int f(A x) {{ return 1; }} }}
             class B extends A {{ int f(int x) {{ return x; }} }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("erased signature"));
        // Different return type, same params.
        let e = check_src(&format!(
            "{MAIN}
             class A {{ int f() {{ return 1; }} }}
             class B extends A {{ bool f() {{ return true; }} }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("erased signature"));
        // Covariant-looking class params still erase differently.
        let e = check_src(&format!(
            "{MAIN}
             class A {{ void f(A x) {{ }} }}
             class B extends A {{ void f(B x) {{ }} }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("erased signature"));
    }

    #[test]
    fn accepts_identical_erasure_override() {
        // Type-variable params erase to Object; overriding with Object is
        // legal (same erasure).
        check_ok(&format!(
            "{MAIN}
             class Box<T> {{ void put(T v) {{ }} }}
             class AnyBox extends Box {{ void put(Object v) {{ }} }}"
        ));
    }

    #[test]
    fn rejects_arity_changing_override() {
        let e = check_src(&format!(
            "{MAIN}
             class A {{ int f() {{ return 1; }} }}
             class B extends A {{ int f(int x) {{ return x; }} }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("parameter count"));
    }

    #[test]
    fn generic_field_substitution() {
        check_ok(&format!(
            "{MAIN}
             class Box<T> {{ T value; T get() {{ return this.value; }} }}
             class Item {{ int x; }}
             class Use {{
                static int f() {{
                    Box<Item> b = new Box<Item>();
                    b.value = new Item();
                    Item i = b.get();
                    return i.x;
                }}
             }}"
        ));
    }

    #[test]
    fn generic_mismatch_rejected() {
        let e = check_src(&format!(
            "{MAIN}
             class Box<T> {{ T value; }}
             class Item {{ }}
             class Other {{ }}
             class Use {{
                static void f() {{
                    Box<Item> b = new Box<Item>();
                    b.value = new Other();
                }}
             }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("not assignable"));
    }

    #[test]
    fn raw_generic_type_defaults_to_object() {
        check_ok(&format!(
            "{MAIN}
             class Box<T> {{ T value; }}
             class Use {{
                static void f() {{
                    Box b = new Box();
                    b.value = new Use();
                }}
             }}"
        ));
    }

    #[test]
    fn implicit_this_field_access_and_write() {
        check_ok(&format!(
            "{MAIN}
             class C {{
                int x;
                void set(int v) {{ x = v; }}
                int get() {{ return x; }}
             }}"
        ));
    }

    #[test]
    fn static_call_via_class_name() {
        check_ok(&format!(
            "{MAIN}
             class Util {{ static int twice(int x) {{ return 2 * x; }} }}
             class Use {{ static int f() {{ return Util.twice(21); }} }}"
        ));
    }

    #[test]
    fn missing_return_rejected() {
        let e =
            check_src("class Main { static int main() { if (true) { return 1; } } }").unwrap_err();
        assert!(e.message.contains("without returning"));
    }

    #[test]
    fn infinite_loop_counts_as_return() {
        check_ok("class Main { static int main() { while (true) { } } }");
    }

    #[test]
    fn loop_with_break_does_not_count_as_return() {
        let e =
            check_src("class Main { static int main() { while (true) { break; } } }").unwrap_err();
        assert!(e.message.contains("without returning"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = check_src("class Main { static int main() { break; return 0; } }").unwrap_err();
        assert!(e.message.contains("break"));
    }

    #[test]
    fn null_assignable_to_refs_not_ints() {
        check_ok(&format!(
            "{MAIN} class A {{ static Object f() {{ return null; }} }}"
        ));
        let e = check_src(&format!(
            "{MAIN} class A {{ static int f() {{ return null; }} }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("not assignable"));
    }

    #[test]
    fn builtin_print_and_read_input() {
        check_ok("class Main { static int main() { print(1); return readInput(); } }");
    }

    #[test]
    fn condition_must_be_bool() {
        let e = check_src("class Main { static int main() { if (1) { } return 0; } }").unwrap_err();
        assert!(e.message.contains("Bool"));
    }

    #[test]
    fn subtype_assignment_through_hierarchy() {
        check_ok(&format!(
            "{MAIN}
             class A {{ }}
             class B extends A {{ }}
             class C extends B {{ }}
             class Use {{ static A f() {{ return new C(); }} }}"
        ));
    }

    #[test]
    fn cast_and_instanceof_check() {
        check_ok(&format!(
            "{MAIN}
             class A {{ }}
             class B extends A {{ int x; }}
             class Use {{
                static int f(A a) {{
                    if (a instanceof B) {{ return ((B) a).x; }}
                    return 0;
                }}
             }}"
        ));
        let e = check_src(&format!(
            "{MAIN} class Use {{ static int f(int x) {{ return (Object) x; }} }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("reference"));
    }

    #[test]
    fn ctor_arity_checked() {
        let e = check_src(&format!(
            "{MAIN}
             class P {{ int v; P(int v) {{ this.v = v; }} }}
             class Use {{ static P f() {{ return new P(); }} }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("arguments"));
    }

    #[test]
    fn array_types_check() {
        check_ok(&format!(
            "{MAIN}
             class Use {{
                static int f() {{
                    int[] xs = new int[3];
                    xs[0] = 5;
                    int[][] m = new int[][] {{ new int[1], new int[2] }};
                    return xs[0] + m.length + m[1].length + xs.length;
                }}
             }}"
        ));
    }

    #[test]
    fn unknown_variable_rejected() {
        let e = check_src("class Main { static int main() { return nope; } }").unwrap_err();
        assert!(e.message.contains("unknown variable"));
    }

    #[test]
    fn duplicate_class_rejected() {
        let e = check_src("class A {} class A {} class Main { static int main() { return 0; } }")
            .unwrap_err();
        assert!(e.message.contains("duplicate class"));
    }

    #[test]
    fn spawn_join_lock_check() {
        check_ok(
            "class Main {
                static int worker(int n) { return n; }
                static int main() {
                    Object o = new Main();
                    int t = spawn Main.worker(3);
                    lock o;
                    unlock o;
                    return join t;
                }
             }",
        );
    }

    #[test]
    fn spawn_target_must_be_static_and_return_int() {
        let e = check_src(
            "class Main {
                int w() { return 1; }
                static int main() { return spawn Main.w(); }
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("static"));
        let e = check_src(
            "class Main {
                static void w() { }
                static int main() { return spawn Main.w(); }
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("return int"));
    }

    #[test]
    fn join_requires_int_lock_requires_ref() {
        let e =
            check_src("class Main { static int main() { return join new Main(); } }").unwrap_err();
        assert!(e.message.contains("Int"));
        let e = check_src("class Main { static int main() { lock 3; return 0; } }").unwrap_err();
        assert!(e.message.contains("reference"));
    }

    #[test]
    fn try_catch_binds_typed_slot() {
        check_ok(
            "class Main {
                static int main() {
                    try { throw 7; } catch (int e) { return e; }
                    return 0;
                }
             }",
        );
    }
}
