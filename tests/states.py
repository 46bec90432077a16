"""Test helper: an optimizer state built from its coordinates, shared by the test modules."""

from hyperstep import OptimizerState, ParamPoint, PerCoord


def make_state(w, b=None, v_w=0.0, v_b=None, phi_w=0.0, phi_b=None, u_w=0.0, u_b=None):
    """The state at (w, b); on two parameters a slot's b not given is 0.0."""
    two = b is not None
    if two:
        v_b = 0.0 if v_b is None else v_b
        phi_b = 0.0 if phi_b is None else phi_b
        u_b = 0.0 if u_b is None else u_b
    return OptimizerState(
        params=ParamPoint(w=w, b=b),
        velocity=PerCoord(w=v_w, b=v_b),
        grad_sq_sum=PerCoord(w=phi_w, b=phi_b),
        weighted_grad_sq=PerCoord(w=u_w, b=u_b),
    )
