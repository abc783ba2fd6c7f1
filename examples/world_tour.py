"""World tour: watch the simulated town live, in ASCII.

Renders the world a few times while it runs — fleet vehicles as
letters, background cars as ``c``, pedestrians as ``.``, one vehicle's
route as ``*``.

Run:  python examples/world_tour.py
"""

from repro.sim import World, WorldConfig
from repro.sim.render_ascii import render_world


def tour() -> None:
    world = World(
        WorldConfig(
            map_size=400.0,
            grid_n=3,
            n_vehicles=5,
            n_background_cars=6,
            n_pedestrians=20,
            seed=4,
            min_route_length=120.0,
        )
    )
    plan = world.vehicles[0].plan  # highlight vehicle A's route
    for _ in range(3):
        print(render_world(world, width=68, plan=plan))
        print()
        world.run(15.0)


if __name__ == "__main__":
    tour()
