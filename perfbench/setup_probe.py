"""One set-up pass in a fresh process: import, validate the config, build the
registry and the postal table. The benchmark times this process from launch
to exit, so import cost and index building both count.

    PYTHONPATH=src python3 perfbench/setup_probe.py cfg.json
"""
import sys

from tedclean.config import validate_config
from tedclean.normalize import load_postal_table
from tedclean.registry import load_registry


def main(config_path: str) -> None:
    config = validate_config(config_path)
    registry = load_registry(
        config.registry_entity_file,
        config.registry_facility_file,
        config.registry_entity_map,
        config.registry_facility_map,
        delimiter=config.delimiter,
        date_formats=config.date_formats,
        activity_prefix_length=config.match.activity_prefix_length,
    )
    postal = load_postal_table(config.postal_file, config.delimiter)
    if not registry.facilities or not len(postal):
        sys.exit("set-up built an empty registry or postal table")


if __name__ == "__main__":
    main(sys.argv[1])
